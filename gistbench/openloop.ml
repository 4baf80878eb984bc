let due_ns ~start_ns ~rate k =
  start_ns + int_of_float (Float.round (float_of_int k *. 1e9 /. rate))

let due_count ~start_ns ~rate ~total ~now_ns =
  if now_ns < start_ns then 0
  else
    (* The float guess can be off by one either way at exact
       boundaries; settle it against [due_ns] itself. *)
    let k = int_of_float (Clock.to_s (now_ns - start_ns) *. rate) in
    let k = ref (max 0 (min total k)) in
    while !k < total && due_ns ~start_ns ~rate !k <= now_ns do
      incr k
    done;
    while !k > 0 && due_ns ~start_ns ~rate (!k - 1) > now_ns do
      decr k
    done;
    !k

type ledger = {
  limit_s : float;
  mutable attempted : int;
  mutable refused : int;
  mutable failed : int;
  mutable coalesced : int;
  mutable late : int;
  mutable ttd : float list;
  mutable late_max_ns : int;
}

let ledger ~limit_s =
  {
    limit_s;
    attempted = 0;
    refused = 0;
    failed = 0;
    coalesced = 0;
    late = 0;
    ttd = [];
    late_max_ns = 0;
  }

let submitted l ~due_ns ~sent_ns =
  l.attempted <- l.attempted + 1;
  l.late_max_ns <- max l.late_max_ns (sent_ns - due_ns)

let refused l = l.refused <- l.refused + 1
let coalesced l = l.coalesced <- l.coalesced + 1

let completed l ~due_ns ~harvest_ns ~ok =
  if not ok then l.failed <- l.failed + 1
  else begin
    let s = Clock.to_s (harvest_ns - due_ns) in
    l.ttd <- s :: l.ttd;
    if s > l.limit_s then l.late <- l.late + 1
  end

let attempted l = l.attempted
let refused_count l = l.refused
let failed_count l = l.failed
let coalesced_count l = l.coalesced
let late_count l = l.late
let ttd_s l = List.rev l.ttd
let late_max_s l = Clock.to_s l.late_max_ns

let miss_ratio l =
  if l.attempted = 0 then 0.
  else float_of_int (l.refused + l.failed + l.late) /. float_of_int l.attempted
