(* Fixture: the two sanctioned shapes — immutable-after-init state
   declared [@lint.domain_safe], and allocations that never escape the
   entry. *)

let[@lint.domain_safe] names = Array.of_list [ "a"; "b" ]
let[@lint.parallel_entry] lookup i = Array.get names i

let[@lint.parallel_entry] local x =
  let t = Hashtbl.create 4 in
  Hashtbl.replace t x x;
  Hashtbl.length t
