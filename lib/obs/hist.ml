(* Bucket [0] holds [0, 1); bucket [i >= 1] holds [2^(i-1), 2^i); the
   last bucket is open-ended.  Boundaries are computed by repeated
   doubling, not [log2], so bucketing is exact and portable. *)

let bucket_count = 24

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    counts = Array.make bucket_count 0;
    total = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

(* A loop over local refs, which the compiler keeps unboxed: bucketing a
   sample allocates no closure and no boxed bound. *)
let bucket_of v =
  let idx = ref 0 and hi = ref 1.0 in
  while !idx < bucket_count - 1 && not (v < !hi) do
    incr idx;
    hi := !hi *. 2.0
  done;
  !idx

let bounds idx =
  if idx <= 0 then (0.0, 1.0)
  else
    let rec lo i acc = if i <= 1 then acc else lo (i - 1) (acc *. 2.0) in
    let low = lo idx 1.0 in
    (low, if idx >= bucket_count - 1 then infinity else low *. 2.0)

let add t v =
  if Float.is_nan v || v < 0.0 then invalid_arg "Obs.Hist.add: NaN or negative sample";
  let idx = bucket_of v in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total

let is_empty t = Int.equal t.total 0

let mean t = if Int.equal t.total 0 then 0.0 else t.sum /. float_of_int t.total

let buckets t =
  let acc = ref [] in
  for idx = bucket_count - 1 downto 0 do
    if t.counts.(idx) > 0 then begin
      let lo, hi = bounds idx in
      acc := (lo, hi, t.counts.(idx)) :: !acc
    end
  done;
  !acc

let to_json t =
  let module Json = Cliffedge_report.Json in
  if is_empty t then Json.Obj [ ("count", Json.Int 0) ]
  else
    Json.Obj
      [
        ("count", Json.Int t.total);
        ("mean", Json.Float (mean t));
        ("min", Json.Float t.min_v);
        ("max", Json.Float t.max_v);
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, hi, n) ->
                 Json.Obj
                   [
                     ("lo", Json.Float lo);
                     ( "hi",
                       if Float.is_finite hi then Json.Float hi else Json.Null );
                     ("n", Json.Int n);
                   ])
               (buckets t)) );
      ]

let pp ppf t =
  if is_empty t then Format.pp_print_string ppf "(empty)"
  else begin
    Format.fprintf ppf "n=%d mean=%.2f [%.2f..%.2f]" t.total (mean t) t.min_v t.max_v;
    List.iter
      (fun (lo, hi, n) ->
        if Float.is_finite hi then Format.fprintf ppf "  [%g,%g):%d" lo hi n
        else Format.fprintf ppf "  [%g,inf):%d" lo n)
      (buckets t)
  end
