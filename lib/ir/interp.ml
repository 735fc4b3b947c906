(* Reference sequential interpreter.

   Defines the ground-truth semantics of a loop: the state it leaves in its
   arrays, externals, and live-out registers, and the total compute cost in
   ns (the "sequential execution time" every speedup in Chapter 8 is
   measured against).  Parallel executions produced by Nona are checked for
   semantics preservation against this interpreter. *)

type result = {
  arrays : (string * int array) list;
  live_out : (Instr.reg * int) list;
  externals : Externals.observation;
  iterations : int;  (* completed iterations *)
  work_ns : int;  (* total instruction cost, sequential *)
}

(* A loop resolved for execution, built once per [run].  Registers and
   constants are slots of one [int array] register file, each load and
   store holds the (copied) array it touches, and the phis are parallel
   arrays.  Operands are slot indices: constants are slots written once
   and never again. *)
type op =
  | Binop of { dst : int; op : Instr.binop; a : int; b : int }
  | Load of { dst : int; arr : int array; idx : int }
  | Store of { arr : int array; idx : int; v : int }
  | Work of { amount : int }
  | Call of { dst : int; fn : string; arg : int }  (* [dst] is a discard slot when unused *)
  | Break_if of { cond : int }

type program = {
  regs : int array;  (* the register file *)
  code : op array;
  cost : int array;  (* [Instr.base_cost] of each body position *)
  phi_dst : int array;
  phi_carry : int array;
  phi_val : int array;  (* each phi's value on entry to the next iteration *)
  live_phis : int array;  (* per live-out, the phi holding its value *)
}

(* Resolution rejects, before anything runs, what the direct reading of
   the IR could only fail on mid-run: a register read before the iteration
   defines it (the register file keeps the previous iteration's values, so
   such a read must never execute), a carry the iteration never defines, a
   live-out that is not a phi, and an undeclared array. *)
let resolve (loop : Loop.t) arrays =
  let name = loop.Loop.name in
  let phis = Array.of_list loop.Loop.phis in
  let phi_val =
    Array.map
      (fun (p : Instr.phi) ->
        match p.Instr.init with Instr.Const c -> c | Instr.Reg _ -> invalid_arg "phi init must be const")
      phis
  in
  let nslots = ref 0 in
  let fresh () =
    let s = !nslots in
    incr nslots;
    s
  in
  let slots = Hashtbl.create 64 in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
        let s = fresh () in
        Hashtbl.add slots r s;
        s
  in
  let defined = Hashtbl.create 64 in
  let define r =
    Hashtbl.replace defined r ();
    slot r
  in
  let consts = ref [] in
  let use instr = function
    | Instr.Const c ->
        let s = fresh () in
        consts := (s, c) :: !consts;
        s
    | Instr.Reg r ->
        if not (Hashtbl.mem defined r) then
          invalid_arg
            (Printf.sprintf "%s: r%d read before its definition (%s)" name r (Instr.to_string instr));
        slot r
  in
  let array_of arr =
    match List.assoc_opt arr arrays with
    | Some a -> a
    | None -> invalid_arg (name ^ ": undeclared array " ^ arr)
  in
  let discard = fresh () in
  let phi_dst = Array.map (fun (p : Instr.phi) -> define p.Instr.pdst) phis in
  (* Uses before the instruction's own definition: [r = add r, 1] reads r
     before defining it. *)
  let resolve_instr instr =
    match instr with
    | Instr.Binop { dst; op; a; b } ->
        let a = use instr a in
        let b = use instr b in
        Binop { dst = define dst; op; a; b }
    | Instr.Load { dst; arr; idx } ->
        let idx = use instr idx in
        Load { dst = define dst; arr = array_of arr; idx }
    | Instr.Store { arr; idx; v } ->
        let idx = use instr idx in
        let v = use instr v in
        Store { arr = array_of arr; idx; v }
    | Instr.Work { amount } -> Work { amount = use instr amount }
    | Instr.Call { dst; fn; arg; _ } ->
        let arg = use instr arg in
        Call { dst = (match dst with Some d -> define d | None -> discard); fn; arg }
    | Instr.Break_if { cond } -> Break_if { cond = use instr cond }
  in
  let code = Array.of_list (List.map resolve_instr loop.Loop.body) in
  let phi_carry =
    Array.map
      (fun (p : Instr.phi) ->
        if not (Hashtbl.mem defined p.Instr.carry) then
          invalid_arg (Printf.sprintf "%s: phi carry r%d is never defined" name p.Instr.carry);
        slot p.Instr.carry)
      phis
  in
  (* The last phi of a destination wins, as its carry is the last written. *)
  let live_phi r =
    let k = ref (-1) in
    Array.iteri (fun i (p : Instr.phi) -> if p.Instr.pdst = r then k := i) phis;
    if !k < 0 then invalid_arg (Printf.sprintf "%s: live-out r%d is not a phi destination" name r);
    !k
  in
  let live_phis = Array.of_list (List.map live_phi loop.Loop.live_out) in
  let regs = Array.make !nslots 0 in
  List.iter (fun (s, c) -> regs.(s) <- c) !consts;
  {
    regs;
    code;
    cost = Array.of_list (List.map Instr.base_cost loop.Loop.body);
    phi_dst;
    phi_carry;
    phi_val;
    live_phis;
  }

(* Run [loop] against [externals] (fresh by default).  [max_iters] bounds
   While loops against non-termination in tests.  When [profile] is given
   (an array sized to [Loop.nodes]), per-node execution cost is accumulated
   into it — the execution profile weights Nona's partitioner uses
   (Section 4.3.2).  Each position is charged its base cost, then any
   [Work] amount, before it executes, so a run that raises leaves the
   profile of everything it started. *)
let run ?externals ?profile ?(max_iters = 10_000_000) (loop : Loop.t) =
  let ext = match externals with Some e -> e | None -> Externals.create () in
  let arrays = List.map (fun (n, a) -> (n, Array.copy a)) loop.Loop.arrays in
  let { regs; code; cost; phi_dst; phi_carry; phi_val; live_phis } = resolve loop arrays in
  let nphis = Array.length phi_dst in
  let ncode = Array.length code in
  let charge pos c =
    match profile with
    | Some p -> p.(nphis + pos) <- p.(nphis + pos) +. float_of_int c
    | None -> ()
  in
  let work = ref 0 in
  let iterations = ref 0 in
  let exited = ref false in
  let trip_limit = match loop.Loop.trip with Loop.Count n -> n | Loop.While -> max_iters in
  while (not !exited) && !iterations < trip_limit do
    for k = 0 to nphis - 1 do
      regs.(phi_dst.(k)) <- phi_val.(k)
    done;
    let pos = ref 0 in
    while !pos < ncode do
      let c = cost.(!pos) in
      work := !work + c;
      charge !pos c;
      (match code.(!pos) with
      | Binop { dst; op; a; b } -> regs.(dst) <- Instr.eval_binop op regs.(a) regs.(b)
      | Load { dst; arr; idx } ->
          let i = regs.(idx) in
          if i < 0 || i >= Array.length arr then invalid_arg (loop.Loop.name ^ ": load out of bounds");
          regs.(dst) <- arr.(i)
      | Store { arr; idx; v } ->
          let i = regs.(idx) in
          if i < 0 || i >= Array.length arr then invalid_arg (loop.Loop.name ^ ": store out of bounds");
          arr.(i) <- regs.(v)
      | Work { amount } ->
          let c = max 0 regs.(amount) in
          work := !work + c;
          charge !pos c
      | Call { dst; fn; arg } -> regs.(dst) <- Externals.call ext fn regs.(arg)
      | Break_if { cond } ->
          if regs.(cond) <> 0 then begin
            exited := true;
            pos := ncode
          end);
      incr pos
    done;
    if not !exited then begin
      incr iterations;
      for k = 0 to nphis - 1 do
        phi_val.(k) <- regs.(phi_carry.(k))
      done
    end
  done;
  {
    arrays;
    live_out = List.mapi (fun j r -> (r, phi_val.(live_phis.(j)))) loop.Loop.live_out;
    externals = Externals.observe ext;
    iterations = !iterations;
    work_ns = !work;
  }

(* Structural equality of observable results, for semantics-preservation
   property tests.  The ordered output stream is compared exactly; all
   other observables are order-insensitive by construction.  Results
   holding different numbers of arrays are unequal. *)
let equal_observable a b =
  a.live_out = b.live_out
  && a.externals = b.externals
  && a.iterations = b.iterations
  && List.equal (fun (n1, a1) (n2, a2) -> n1 = n2 && a1 = a2) a.arrays b.arrays
