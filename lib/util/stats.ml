(* Descriptive statistics over float samples.  Used by Decima for
   moving-average throughput estimates and by the benchmark harness for
   response-time percentiles. *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

(* [percentile p xs] for p in [0, 100], by linear interpolation between
   closest ranks.  Does not mutate its argument. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: it gives NaNs a total order
     (before every number), so a sample containing NaN still sorts
     deterministically instead of depending on input order. *)
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median xs = percentile 50.0 xs

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty sample";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let geomean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (acc /. float_of_int n)
  end

(* Exponentially-weighted moving average, the estimator Decima uses for task
   throughput: cheap, O(1) state, and responsive to workload change. *)
module Ewma = struct
  type t = { alpha : float; mutable value : float; mutable primed : bool }

  let create ~alpha =
    if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha in (0,1]";
    { alpha; value = 0.0; primed = false }

  let observe t x =
    if t.primed then t.value <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.value)
    else begin
      t.value <- x;
      t.primed <- true
    end

  let value t = t.value
  let primed t = t.primed
  let reset t = t.primed <- false
end

(* Windowed mean over the last [capacity] observations; used where a bounded
   memory of recent iterations matters more than smooth decay. *)
module Window = struct
  type t = {
    buf : float array;
    mutable len : int;
    mutable next : int;
    mutable sum : float;
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Window.create: capacity must be positive";
    { buf = Array.make capacity 0.0; len = 0; next = 0; sum = 0.0 }

  let observe t x =
    let cap = Array.length t.buf in
    if t.len = cap then t.sum <- t.sum -. t.buf.(t.next) else t.len <- t.len + 1;
    t.buf.(t.next) <- x;
    t.sum <- t.sum +. x;
    t.next <- (t.next + 1) mod cap

  let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len
  let count t = t.len

  let reset t =
    t.len <- 0;
    t.next <- 0;
    t.sum <- 0.0
end
