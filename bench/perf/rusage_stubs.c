/* Child accounting for perf.exe: wait4(2) reports the CPU
   time and peak RSS of exactly the child it reaps, which Unix.times
   (cumulative over all children) cannot. */

#define _DEFAULT_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, or 128 + signal; user + sys seconds; ru_maxrss in KiB) */
CAMLprim value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, cpu);
  int status;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do r = wait4(Int_val(vpid), &status, 0, &ru);
  while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  cpu = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6
                         + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6);
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, cpu);
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Monotonic seconds: wall-clock steps never bend a measured interval. */
CAMLprim value perf_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double(ts.tv_sec + ts.tv_nsec * 1e-9);
}
