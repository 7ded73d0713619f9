type t = { unit_bytes : int; disks : int }

let make ~unit_bytes ~disks =
  if unit_bytes < 1 then invalid_arg "Raid.make: unit_bytes must be >= 1";
  if disks < 1 then invalid_arg "Raid.make: disks must be >= 1";
  { unit_bytes; disks }

let single_disk = make ~unit_bytes:max_int ~disks:1

let place t lba =
  if lba < 0 then invalid_arg "Raid.place: negative position";
  let stripe = lba / t.unit_bytes in
  let member = stripe mod t.disks in
  let member_lba = (stripe / t.disks * t.unit_bytes) + (lba mod t.unit_bytes) in
  (member, member_lba)

let member_of_lba t lba = fst (place t lba)

let members_of_span t ~offset ~size =
  if size < 0 then invalid_arg "Raid.members_of_span: negative size";
  if size = 0 then []
  else begin
    let first = offset / t.unit_bytes and last = (offset + size - 1) / t.unit_bytes in
    let members = ref [] in
    let s = ref first in
    (* After [disks] stripes every member is covered. *)
    while !s <= last && List.length !members < t.disks do
      let m = !s mod t.disks in
      if not (List.mem m !members) then members := m :: !members;
      incr s
    done;
    List.sort compare !members
  end
