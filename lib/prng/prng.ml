type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }

(* Masks down to OCaml's 62 value bits so the result is a non-negative
   native [int]. *)
let next_nonneg t = Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int max_int))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next_nonneg t mod bound

let int_in_range t ~min ~max =
  if max < min then invalid_arg "Prng.int_in_range: max < min";
  min + int t (max - min + 1)

let float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let choose_array t xs =
  if Array.length xs = 0 then invalid_arg "Prng.choose_array: empty array";
  xs.(int t (Array.length xs))

let choose t xs =
  match xs with
  | [] -> invalid_arg "Prng.choose: empty list"
  | _ -> choose_array t (Array.of_list xs)

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let sample t k xs =
  let n = List.length xs in
  if k < 0 || k > n then invalid_arg "Prng.sample: k out of range";
  let arr = Array.of_list xs in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guards against log 0 on the (unreachable in practice) draw u = 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u
