(* Summary statistics for the benchmark's samples.  Everything here works
   on copies: callers keep their sample arrays in arrival order. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.geomean: no samples";
  Array.iter
    (fun x -> if not (x > 0.0) then invalid_arg "Stats.geomean: non-positive")
    xs;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

(* The percentile ladder a tail is read from: 50, 90, 99, 99.9, ... *)
let ladder = [ 50.0; 90.0; 99.0; 99.9; 99.99; 99.999; 99.9999 ]

(* The nearest rank of percentile [p] among [n] samples: the 1-based
   position of the smallest sample with at least [p]% of the samples at
   or below it.  The slack absorbs decimal percentiles' rounding error
   (99.9% of 10,000 is rank 9,990, not 9,991). *)
let rank p n = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-6))

let rank_value a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank p n - 1)))

(* The tail rule: the highest percentile on the ladder that still has at
   least ten samples strictly above its rank, with its value.  [None] when
   even the median lacks ten samples beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let above p = n - rank p n in
  List.fold_left
    (fun acc p -> if above p >= 10 then Some (p, rank_value a p) else acc)
    None ladder

(* A growable float buffer, so the timed loop appends without consing. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let sum t = Array.fold_left ( +. ) 0.0 (to_array t)
end
