(* Reads over a metrics-registry snapshot: family totals and counts,
   summed across label sets. *)

module M = Parcae_obs.Metrics

let find snap name = List.find_opt (fun (f : M.fam_snapshot) -> f.M.name = name) snap

let fold snap name f = match find snap name with
  | None -> 0.0
  | Some fam -> List.fold_left (fun acc (s : M.sample) -> acc +. f s.M.value) 0.0 fam.M.samples

(* Counter value, gauge value, or histogram/summary sum. *)
let total snap name =
  fold snap name (function
    | M.Counter_v n -> float_of_int n
    | M.Gauge_v g -> g
    | M.Histogram_v { sum; _ } | M.Summary_v { sum; _ } -> sum)

(* Observation count of a histogram or summary family. *)
let count snap name =
  fold snap name (function
    | M.Histogram_v { count; _ } | M.Summary_v { count; _ } -> float_of_int count
    | M.Counter_v _ | M.Gauge_v _ -> 0.0)

(* Counters that count events (not accumulated nanoseconds or words). *)
let counts_events name =
  let has sub =
    let n = String.length name and k = String.length sub in
    let rec go i = i + k <= n && (String.sub name i k = sub || go (i + 1)) in
    go 0
  in
  not (has "_ns_" || has "words")

(* Every event-counter increment and every histogram/summary observation
   in the snapshot: the number of registry calls the run made. *)
let counter_incs snap =
  List.fold_left
    (fun acc (f : M.fam_snapshot) ->
      match f.M.skind with
      | M.Counter_kind when counts_events f.M.name -> acc +. total snap f.M.name
      | _ -> acc)
    0.0 snap

let observations snap =
  List.fold_left
    (fun acc (f : M.fam_snapshot) ->
      match f.M.skind with
      | M.Histogram_kind | M.Summary_kind -> acc +. count snap f.M.name
      | _ -> acc)
    0.0 snap
