(* Host clock and the calibrated spin kernel.

   [compute n] on the native backend must consume at least n real
   nanoseconds of CPU.  We time a fixed arithmetic loop once at startup to
   learn iterations-per-ns, and use it only to size slices: the spin runs
   slice after slice, with a cpu-relax hint after each full-length one (an
   SMT-friendly pause; the fiber keeps its domain for the whole spin),
   until the clock passes the deadline.  So a stale or optimistic
   calibration costs extra clock reads, never a short spin.  The measured
   (not the requested) duration is returned so busy-time accounting
   matches the clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The spin body: cheap integer arithmetic the compiler cannot delete
   ([Sys.opaque_identity] on the accumulator) and cannot strength-reduce
   into anything sublinear. *)
let spin_iters n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc + i) lxor (i lsl 1)
  done;
  ignore (Sys.opaque_identity !acc)

(* Measure iterations-per-ns over a window long enough (>= 2 ms) to
   amortize clock quantization.  Doubling the trial size until the window
   is reached keeps calibration under ~10 ms even on slow hosts. *)
let calibrate () =
  let rec grow iters =
    let t0 = now_ns () in
    spin_iters iters;
    let dt = now_ns () - t0 in
    if dt >= 2_000_000 then float_of_int iters /. float_of_int dt
    else grow (iters * 2)
  in
  (* Warm the loop (code + branch predictors) before the timed run. *)
  spin_iters 10_000;
  grow 100_000

let rate = ref nan

let spins_per_ns () =
  if Float.is_nan !rate then rate := calibrate ();
  !rate

let slice_ns = 200_000

(* Burn [n] ns or a little more and return the measured elapsed ns.
   Each slice aims at half the time left (at most [slice_ns], and all of
   it under 2 us), so an optimistic calibration overshoots by a fraction
   of the last, short slice.  Elapsed time includes any preemption
   suffered while spinning — on a saturated machine that is genuine
   scheduling delay and Decima should see it, exactly as it would on the
   paper's hardware. *)
let spin_ns n =
  if n <= 0 then 0
  else begin
    let per_ns = spins_per_ns () in
    let t0 = now_ns () in
    let deadline = t0 + n in
    let rec go now =
      let left = deadline - now in
      if left <= 0 then now - t0
      else begin
        let slice = if left <= 2_000 then left else min slice_ns (left / 2) in
        spin_iters (max 1 (int_of_float (float_of_int slice *. per_ns)));
        if slice = slice_ns then Domain.cpu_relax ();
        go (now_ns ())
      end
    in
    go t0
  end
