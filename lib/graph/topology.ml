module Prng = Cliffedge_prng.Prng

type spec =
  | Ring of int
  | Path of int
  | Grid of int * int
  | Torus of int * int
  | Complete of int
  | Star of int
  | Binary_tree of int
  | Erdos_renyi of int * float
  | Watts_strogatz of int * int * float
  | Barabasi_albert of int * int
  | Random_geometric of int * float
  | Implicit_ring of int
  | Implicit_torus of int * int
  | Implicit_geometric of int * float
  | Implicit_power_law of int

(* The one bounds check per family: the constructors raise on it, and
   [spec_of_string] rejects what it flags, so every parsed spec builds. *)
let violation = function
  | Ring n | Implicit_ring n -> if n >= 3 then None else Some "need n >= 3"
  | Path n | Complete n | Star n | Binary_tree n ->
      if n >= 2 then None else Some "need n >= 2"
  | Grid (w, h) ->
      if w >= 1 && h >= 1 && w * h >= 2 then None else Some "need w, h >= 1, w*h >= 2"
  | Torus (w, h) | Implicit_torus (w, h) ->
      if w >= 3 && h >= 3 then None else Some "need w, h >= 3"
  | Erdos_renyi (n, p) ->
      if n < 2 then Some "need n >= 2"
      else if p >= 0.0 && p <= 1.0 then None
      else Some "p out of [0,1]"
  | Watts_strogatz (n, k, beta) ->
      if n < 4 then Some "need n >= 4"
      else if not (k >= 2 && k mod 2 = 0 && k < n) then Some "need k even, 2 <= k < n"
      else if beta >= 0.0 && beta <= 1.0 then None
      else Some "beta out of [0,1]"
  | Barabasi_albert (n, m) ->
      if m >= 1 && n > m + 1 then None else Some "need n > m + 1 >= 2"
  | Random_geometric (n, radius) ->
      if n < 2 then Some "need n >= 2"
      else if radius > 0.0 then None
      else Some "radius must be positive"
  | Implicit_geometric (n, radius) ->
      if n < 2 then Some "need n >= 2"
      else if radius > 0.0 && radius <= 1.0 then None
      else Some "radius out of (0,1]"
  | Implicit_power_law n -> if n >= 8 then None else Some "need n >= 8"

let require name spec =
  Option.iter
    (fun m -> invalid_arg (Printf.sprintf "Topology.%s: %s" name m))
    (violation spec)

let ring n =
  require "ring" (Ring n);
  Graph.of_edges (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  require "path" (Path n);
  Graph.of_edges (List.init (n - 1) (fun i -> (i, i + 1)))

let grid w h =
  require "grid" (Grid (w, h));
  let id x y = (y * w) + x in
  let edges = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then edges := (id x y, id (x + 1) y) :: !edges;
      if y + 1 < h then edges := (id x y, id x (y + 1)) :: !edges
    done
  done;
  Graph.of_edges !edges

let torus w h =
  require "torus" (Torus (w, h));
  let id x y = (y * w) + x in
  let edges = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      edges := (id x y, id ((x + 1) mod w) y) :: !edges;
      edges := (id x y, id x ((y + 1) mod h)) :: !edges
    done
  done;
  Graph.of_edges !edges

let complete n =
  require "complete" (Complete n);
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Graph.of_edges !edges

let star n =
  require "star" (Star n);
  Graph.of_edges (List.init (n - 1) (fun i -> (0, i + 1)))

let binary_tree n =
  require "binary_tree" (Binary_tree n);
  let edges = ref [] in
  for i = 1 to n - 1 do
    edges := (i, (i - 1) / 2) :: !edges
  done;
  Graph.of_edges !edges

(* Random backbone path guaranteeing connectivity of random families. *)
let backbone rng n =
  let order = Array.init n (fun i -> i) in
  Prng.shuffle rng order;
  List.init (n - 1) (fun i -> (order.(i), order.(i + 1)))

let erdos_renyi rng n ~p =
  require "erdos_renyi" (Erdos_renyi (n, p));
  let edges = ref (backbone rng n) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.float rng 1.0 < p then edges := (i, j) :: !edges
    done
  done;
  Graph.of_edges !edges

let watts_strogatz rng n ~k ~beta =
  require "watts_strogatz" (Watts_strogatz (n, k, beta));
  let g = ref Graph.empty in
  for i = 0 to n - 1 do
    g := Graph.add_node (Node_id.of_int i) !g
  done;
  let add i j = g := Graph.add_edge (Node_id.of_int i) (Node_id.of_int j) !g in
  let has i j = Graph.mem_edge (Node_id.of_int i) (Node_id.of_int j) !g in
  for i = 0 to n - 1 do
    for offset = 1 to k / 2 do
      let j = (i + offset) mod n in
      if Prng.float rng 1.0 < beta then begin
        (* Rewire to a uniform target, keeping the graph simple; fall back
           to the lattice edge when no valid target is drawn. *)
        let target = Prng.int rng n in
        if not (Int.equal target i) && not (has i target) then add i target
        else if not (has i j) then add i j
      end
      else if not (has i j) then add i j
    done
  done;
  (* The rewiring can in principle disconnect the graph; a ring backbone
     restores connectivity without changing the small-world character. *)
  if Graph.is_connected !g then !g
  else begin
    for i = 0 to n - 1 do
      if not (has i ((i + 1) mod n)) then add i ((i + 1) mod n)
    done;
    !g
  end

let barabasi_albert rng n ~m =
  require "barabasi_albert" (Barabasi_albert (n, m));
  let g = ref (complete (m + 1)) in
  (* Repeated endpoints of existing edges implement degree-proportional
     sampling. *)
  let endpoints = ref [] in
  List.iter
    (fun (u, v) -> endpoints := u :: v :: !endpoints)
    (Graph.edges !g);
  let endpoint_array = ref (Array.of_list !endpoints) in
  for i = m + 1 to n - 1 do
    let p = Node_id.of_int i in
    let chosen = ref Node_set.empty in
    while Node_set.cardinal !chosen < m do
      let q = Prng.choose_array rng !endpoint_array in
      if not (Node_id.equal q p) then chosen := Node_set.add q !chosen
    done;
    Node_set.iter
      (fun q ->
        g := Graph.add_edge p q !g;
        endpoints := p :: q :: !endpoints)
      !chosen;
    endpoint_array := Array.of_list !endpoints
  done;
  !g

let random_geometric rng n ~radius =
  require "random_geometric" (Random_geometric (n, radius));
  let points = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let close i j =
    let xi, yi = points.(i) and xj, yj = points.(j) in
    let dx = xi -. xj and dy = yi -. yj in
    (dx *. dx) +. (dy *. dy) <= radius *. radius
  in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if close i j then edges := (i, j) :: !edges
    done
  done;
  let g = List.fold_left (fun g i -> Graph.add_node (Node_id.of_int i) g)
      (Graph.of_edges !edges)
      (List.init n (fun i -> i))
  in
  if Graph.is_connected g then g
  else begin
    (* Stitch along x-coordinate order: links each node to its spatial
       successor, keeping the geometric flavour of the backbone. *)
    let order = Array.init n (fun i -> i) in
    let compare_xy (xa, ya) (xb, yb) =
      let c = Float.compare xa xb in
      if c <> 0 then c else Float.compare ya yb
    in
    Array.sort (fun a b -> compare_xy points.(a) points.(b)) order;
    let extra = List.init (n - 1) (fun i -> (order.(i), order.(i + 1))) in
    List.fold_left
      (fun g (i, j) -> Graph.add_edge (Node_id.of_int i) (Node_id.of_int j) g)
      g extra
  end

(* ------------------------------------------------------------------ *)
(* Implicit (generator-backed) topologies.

   Each returns a {!Graph.implicit} graph over a kernel: a pure function
   from a node id to its neighbour ids, never storing the adjacency.  The
   ring and torus kernels produce edge-for-edge the same graphs as the
   stored builders above; the random families are seed-deterministic
   but use hash-based placement instead of sequential PRNG draws, since
   an on-demand kernel cannot replay a draw sequence. *)

let implicit_ring n =
  require "implicit_ring" (Implicit_ring n);
  Graph.implicit ~n ~iter_neighbours:(fun i f ->
      f ((i + 1) mod n);
      f ((i + n - 1) mod n))

let implicit_torus w h =
  require "implicit_torus" (Implicit_torus (w, h));
  Graph.implicit ~n:(w * h) ~iter_neighbours:(fun i f ->
      let x = i mod w and y = i / w in
      f ((y * w) + ((x + 1) mod w));
      f ((y * w) + ((x + w - 1) mod w));
      f ((((y + 1) mod h) * w) + x);
      f ((((y + h - 1) mod h) * w) + x))

(* splitmix-style avalanche over the native 62/63-bit int; constants fit
   comfortably below [max_int] on 64-bit platforms.  Purely arithmetic —
   the nondet-taint rule (no [Hashtbl.hash]) keeps kernels replayable. *)
let mix seed x =
  let z = (x + 1) * 0x9e3779b1 in
  let z = z lxor (seed * 0x85ebca77) in
  let z = z lxor (z lsr 31) in
  let z = z * 0xc2b2ae35 in
  let z = z lxor (z lsr 29) in
  let z = z * 0x27d4eb2f in
  (z lxor (z lsr 32)) land max_int

(* Hash jitter in [0, 1): 40 bits of entropy is plenty for placement. *)
let unit_float seed x =
  float_of_int (mix seed x land 0xff_ffff_ffff) /. 1099511627776.0

(* Cellular random-geometric kernel.  The unit square is cut into a
   [g × g] grid with cell side [1/g >= radius]; node [i] lives in cell
   [i mod g²] at a hash-jittered position inside it, so any neighbour
   within [radius] sits in the 3×3 cell block around [i] and a query
   scans only the ~[9 n / g²] ids hashed into that block.  The spatial
   law matches [random_geometric] (uniform points, radius threshold) but
   the point set differs — differential tests compare the kernel against
   a graph stored from its own edge list, not against the PRNG-driven
   builder. *)
let implicit_geometric ~seed n ~radius =
  require "implicit_geometric" (Implicit_geometric (n, radius));
  let g = Int.max 1 (int_of_float (1.0 /. radius)) in
  let cells = g * g in
  let position i =
    let c = i mod cells in
    let cx = c mod g and cy = c / g in
    let side = 1.0 /. float_of_int g in
    ( (float_of_int cx +. unit_float seed (2 * i)) *. side,
      (float_of_int cy +. unit_float seed ((2 * i) + 1)) *. side )
  in
  let close i j =
    let xi, yi = position i and xj, yj = position j in
    let dx = xi -. xj and dy = yi -. yj in
    (dx *. dx) +. (dy *. dy) <= radius *. radius
  in
  let iter_block i f =
    let c = i mod cells in
    let cx = c mod g and cy = c / g in
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let x = cx + dx and y = cy + dy in
        if x >= 0 && x < g && y >= 0 && y < g then begin
          (* Ids hashed into cell (x, y) are exactly c' + k·g². *)
          let c' = (y * g) + x in
          let j = ref c' in
          while !j < n do
            if not (Int.equal !j i) then f !j;
            j := !j + cells
          done
        end
      done
    done
  in
  Graph.implicit ~n ~iter_neighbours:(fun i f ->
      iter_block i (fun j -> if close i j then f j))

(* --- Seeded Feistel permutations (for the power-law kernel) --------- *)

(* 4-round balanced Feistel network on [2 * half] bits; a bijection of
   [0, 2^(2 half)) for any seed, with [feistel_bwd] its exact inverse. *)
let feistel_fwd ~seed ~half x =
  let mask = (1 lsl half) - 1 in
  let l = ref (x lsr half) and r = ref (x land mask) in
  for round = 0 to 3 do
    let f = mix (seed + round) !r land mask in
    let l' = !r and r' = !l lxor f in
    l := l';
    r := r'
  done;
  (!l lsl half) lor !r

let feistel_bwd ~seed ~half y =
  let mask = (1 lsl half) - 1 in
  let l = ref (y lsr half) and r = ref (y land mask) in
  for round = 3 downto 0 do
    let f = mix (seed + round) !l land mask in
    let l' = !r lxor f and r' = !l in
    l := l';
    r := r'
  done;
  (!l lsl half) lor !r

(* Cycle-walking restricts the Feistel bijection to [0, m): repeatedly
   re-encrypt until the value lands below [m].  Walk length is
   geometric with mean < 4 (the power-of-two domain is < 4m). *)
let half_for m =
  let rec bits b = if 1 lsl (2 * b) >= m then b else bits (b + 1) in
  bits 1

let perm ~seed m x =
  let half = half_for m in
  let rec walk x =
    let y = feistel_fwd ~seed ~half x in
    if y < m then y else walk y
  in
  walk x

let perm_inv ~seed m y =
  let half = half_for m in
  let rec walk y =
    let x = feistel_bwd ~seed ~half y in
    if x < m then x else walk x
  in
  walk y

(* Power-law kernel: a deterministic configuration model with a γ≈2
   tail plus a ring backbone for connectivity.

   Ranks: a seeded permutation π of [0, n) assigns node [i] the rank
   [π(i)], decoupling degree from id.  Blocks [l = 0..K] cover ranks
   [2^l - 1, 2^(l+1) - 1): block [l] holds [2^l] ranks of stub degree
   [2^(K-l)], so [P(deg >= d) ∝ 1/d] — the tail of a γ≈2 power law —
   and every block contributes exactly [2^K] stubs, [S = (K+1)·2^K] in
   total (always even).  [K] is the largest value with [2^(K+1) - 1 <=
   n]; ranks beyond the blocks keep only their backbone edges.

   Matching: a second seeded permutation ψ of [0, S) lays the stubs out
   in a random order, and position-neighbours pair up:
   [σ(s) = ψ(ψ⁻¹(s) lxor 1)] — an involution with no fixed points, so
   stub pairing is symmetric by construction.  Self-loops (partner stub
   on the same node) are skipped; candidates are deduped so multi-edges
   collapse and each neighbour is listed once. *)
let implicit_power_law ~seed n =
  require "implicit_power_law" (Implicit_power_law n);
  let rec largest_k k = if (1 lsl (k + 2)) - 1 <= n then largest_k (k + 1) else k in
  let k_top = largest_k 0 in
  let block_stubs = 1 lsl k_top in
  let stubs = (k_top + 1) * block_stubs in
  let rank_seed = mix seed 0x5eed and stub_seed = mix seed 0x51ab in
  let rank_of i = perm ~seed:rank_seed n i in
  let node_of r = perm_inv ~seed:rank_seed n r in
  let rank_of_stub s =
    let l = s / block_stubs in
    let idx = s mod block_stubs / (1 lsl (k_top - l)) in
    (1 lsl l) - 1 + idx
  in
  (* First stub of rank r in block l: blocks are laid out consecutively,
     each rank owning a contiguous run of 2^(K-l) stubs. *)
  let stub_range r =
    let l =
      let rec block l = if r + 1 < 1 lsl (l + 1) then l else block (l + 1) in
      block 0
    in
    let idx = r - ((1 lsl l) - 1) in
    let width = 1 lsl (k_top - l) in
    ((l * block_stubs) + (idx * width), width)
  in
  let partner s = perm ~seed:stub_seed stubs (perm_inv ~seed:stub_seed stubs s lxor 1) in
  let candidates i =
    let acc = ref [ (i + 1) mod n; (i + n - 1) mod n ] in
    let r = rank_of i in
    if r < (1 lsl (k_top + 1)) - 1 then begin
      let first, width = stub_range r in
      for s = first to first + width - 1 do
        let j = node_of (rank_of_stub (partner s)) in
        if not (Int.equal j i) then acc := j :: !acc
      done
    end;
    List.sort_uniq Int.compare !acc
  in
  Graph.implicit ~n ~iter_neighbours:(fun i f -> List.iter f (candidates i))

let build rng = function
  | Ring n -> ring n
  | Path n -> path n
  | Grid (w, h) -> grid w h
  | Torus (w, h) -> torus w h
  | Complete n -> complete n
  | Star n -> star n
  | Binary_tree n -> binary_tree n
  | Erdos_renyi (n, p) -> erdos_renyi rng n ~p
  | Watts_strogatz (n, k, beta) -> watts_strogatz rng n ~k ~beta
  | Barabasi_albert (n, m) -> barabasi_albert rng n ~m
  | Random_geometric (n, radius) -> random_geometric rng n ~radius
  | Implicit_ring n -> implicit_ring n
  | Implicit_torus (w, h) -> implicit_torus w h
  (* One draw turns the stream-based PRNG into the fixed seed the
     on-demand kernel closes over; a topology stays a pure function of
     the seed handed to [build]. *)
  | Implicit_geometric (n, radius) ->
      implicit_geometric ~seed:(Prng.int rng 0x3fff_ffff) n ~radius
  | Implicit_power_law n -> implicit_power_law ~seed:(Prng.int rng 0x3fff_ffff) n

let parse_spec s =
  let fail () = Error (Printf.sprintf "unrecognized topology spec %S" s) in
  let int_of x = int_of_string_opt x in
  let float_of x = float_of_string_opt x in
  match String.split_on_char ':' s with
  | [ "ring"; n ] -> (
      match int_of n with Some n -> Ok (Ring n) | None -> fail ())
  | [ "path"; n ] -> (
      match int_of n with Some n -> Ok (Path n) | None -> fail ())
  | [ "complete"; n ] -> (
      match int_of n with Some n -> Ok (Complete n) | None -> fail ())
  | [ "star"; n ] -> (
      match int_of n with Some n -> Ok (Star n) | None -> fail ())
  | [ "tree"; n ] -> (
      match int_of n with Some n -> Ok (Binary_tree n) | None -> fail ())
  | [ (("grid" | "torus") as kind); wh ] -> (
      match String.split_on_char 'x' wh with
      | [ w; h ] -> (
          match (int_of w, int_of h) with
          | Some w, Some h ->
              if String.equal kind "grid" then Ok (Grid (w, h)) else Ok (Torus (w, h))
          | _ -> fail ())
      | _ -> fail ())
  | [ "er"; n; p ] -> (
      match (int_of n, float_of p) with
      | Some n, Some p -> Ok (Erdos_renyi (n, p))
      | _ -> fail ())
  | [ "ws"; n; k; beta ] -> (
      match (int_of n, int_of k, float_of beta) with
      | Some n, Some k, Some beta -> Ok (Watts_strogatz (n, k, beta))
      | _ -> fail ())
  | [ "ba"; n; m ] -> (
      match (int_of n, int_of m) with
      | Some n, Some m -> Ok (Barabasi_albert (n, m))
      | _ -> fail ())
  | [ "geo"; n; r ] -> (
      match (int_of n, float_of r) with
      | Some n, Some r -> Ok (Random_geometric (n, r))
      | _ -> fail ())
  | [ "iring"; n ] -> (
      match int_of n with Some n -> Ok (Implicit_ring n) | None -> fail ())
  | [ "itorus"; wh ] -> (
      match String.split_on_char 'x' wh with
      | [ w; h ] -> (
          match (int_of w, int_of h) with
          | Some w, Some h -> Ok (Implicit_torus (w, h))
          | _ -> fail ())
      | _ -> fail ())
  | [ "igeo"; n; r ] -> (
      match (int_of n, float_of r) with
      | Some n, Some r -> Ok (Implicit_geometric (n, r))
      | _ -> fail ())
  | [ "iplaw"; n ] -> (
      match int_of n with Some n -> Ok (Implicit_power_law n) | None -> fail ())
  | _ -> fail ()

let spec_of_string s =
  Result.bind (parse_spec s) (fun spec ->
      match violation spec with
      | None -> Ok spec
      | Some m -> Error (Printf.sprintf "topology spec %S: %s" s m))

(* [%g] keeps six significant digits, so it stays only when it reads
   back exactly; 17 digits always do. *)
let pp_spec_float ppf x =
  let print fmt = Printf.sprintf fmt x in
  let reads_back s =
    match float_of_string_opt s with Some y -> Float.equal x y | None -> false
  in
  Format.pp_print_string ppf
    (match List.find_opt reads_back [ print "%g"; print "%.15g"; print "%.16g" ] with
    | Some s -> s
    | None -> print "%.17g")

let pp_spec ppf = function
  | Ring n -> Format.fprintf ppf "ring:%d" n
  | Path n -> Format.fprintf ppf "path:%d" n
  | Grid (w, h) -> Format.fprintf ppf "grid:%dx%d" w h
  | Torus (w, h) -> Format.fprintf ppf "torus:%dx%d" w h
  | Complete n -> Format.fprintf ppf "complete:%d" n
  | Star n -> Format.fprintf ppf "star:%d" n
  | Binary_tree n -> Format.fprintf ppf "tree:%d" n
  | Erdos_renyi (n, p) -> Format.fprintf ppf "er:%d:%a" n pp_spec_float p
  | Watts_strogatz (n, k, beta) ->
      Format.fprintf ppf "ws:%d:%d:%a" n k pp_spec_float beta
  | Barabasi_albert (n, m) -> Format.fprintf ppf "ba:%d:%d" n m
  | Random_geometric (n, r) -> Format.fprintf ppf "geo:%d:%a" n pp_spec_float r
  | Implicit_ring n -> Format.fprintf ppf "iring:%d" n
  | Implicit_torus (w, h) -> Format.fprintf ppf "itorus:%dx%d" w h
  | Implicit_geometric (n, r) -> Format.fprintf ppf "igeo:%d:%a" n pp_spec_float r
  | Implicit_power_law n -> Format.fprintf ppf "iplaw:%d" n
