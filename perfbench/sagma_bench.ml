(* sagma_bench — the layered benchmark.

     sagma_bench run [--workload NAME]... [--seed N] [--seconds S]
                     [--trace 0|1 | --traced] [--out FILE]
     sagma_bench compare BASE.json... -- CHANGE.json...

   [run] generates each workload from the seed, starts the built
   sagma_server processes, drives them closed-loop over TCP for S
   seconds, checks every answer against the plaintext executor and
   prints every end-to-end metric. With --trace 1 (or --traced) it also
   records spans and measures the per-layer metrics, and writes
   bench-trace.json and bench-layers.json per workload next to FILE.
   The last line on stdout is one JSON object with the metrics
   BENCHMARK.json lists (end_to_end untraced, per_layer traced).

   [compare] judges each (workload, end-to-end metric) between two sets
   of result files by the bounds in Catalog. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("sagma_bench: " ^ s); exit 2) fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let manifest_names manifest key =
  List.filter_map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key manifest))

let metrics_json (units : string -> string) (values : (string * float) list) names =
  Json.Obj
    (List.map
       (fun name ->
         match List.assoc_opt name values with
         | Some v -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (units name)) ])
         | None -> die "metric %s was not measured" name)
       names)

let e2e_unit name = match Catalog.find_e2e name with Some m -> m.Catalog.unit | None -> "?"

let layer_unit name =
  match List.find_opt (fun l -> l.Catalog.lname = name) Catalog.layers with
  | Some l -> l.Catalog.lunit
  | None -> "?"

let run_cmd argv =
  let names = ref [] and seed = ref 1 and seconds = ref 10. and traced = ref false in
  let out = ref ".perfbench/results.json" in
  let spec =
    [ ( "--workload",
        Arg.String (fun w -> names := w :: !names),
        "NAME  run only this workload (repeatable)" );
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase (default 10)");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1  1 = traced run with per-layer metrics");
      ("--traced", Arg.Set traced, " same as --trace 1");
      ("--out", Arg.Set_string out, "FILE  results JSON (default .perfbench/results.json)") ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv spec
       (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
       "sagma_bench run"
   with Arg.Bad m | Arg.Help m -> die "%s" m);
  let manifest =
    try Json.of_file "BENCHMARK.json"
    with Sys_error e | Json.Parse_error e -> die "BENCHMARK.json: %s" e
  in
  (match Catalog.check_manifest manifest with Ok () -> () | Error e -> die "BENCHMARK.json: %s" e);
  let workloads =
    match List.rev !names with
    | [] -> Workload.workloads
    | ns ->
      List.map
        (fun n -> match Workload.find n with Some w -> w | None -> die "unknown workload %s" n)
        ns
  in
  let outdir = Filename.dirname !out in
  let results =
    List.map
      (fun (w : Workload.spec) ->
        let dir = Filename.concat outdir w.Workload.name in
        mkdir_p dir;
        let layers = if !traced then Some Layers.measure_all else None in
        let o =
          try Workload.run ?layers w ~seed:!seed ~seconds:!seconds ~logdir:dir
          with e -> die "%s: %s" w.Workload.name (Printexc.to_string e)
        in
        let correct = o.Workload.failed = 0 in
        List.iter
          (fun (n, v) -> Printf.printf "%-18s %-24s %14.4f %s\n" w.Workload.name n v (e2e_unit n))
          o.Workload.e2e;
        List.iter
          (fun (n, v) -> Printf.printf "%-18s %-36s %14.4f %s\n" w.Workload.name n v (layer_unit n))
          o.Workload.layers;
        Printf.printf "%-18s attempted %d, failed %d (wrong answers %d), torn fleet reads %d\n"
          w.Workload.name o.Workload.attempted o.Workload.failed o.Workload.wrong o.Workload.torn;
        if !traced then begin
          Json.to_file (Filename.concat dir "bench-trace.json") (Spans.chrome_trace o.Workload.spans);
          Json.to_file (Filename.concat dir "bench-layers.json")
            (Json.Obj
               [ ("workload", Json.Str w.Workload.name); ("seed", Json.Num (float_of_int !seed));
                 ("layers", o.Workload.layer_detail); ("spans", Spans.summary o.Workload.spans) ])
        end;
        let line =
          if !traced then metrics_json layer_unit o.Workload.layers (manifest_names manifest "per_layer")
          else metrics_json e2e_unit o.Workload.e2e (manifest_names manifest "end_to_end")
        in
        print_endline
          (Json.to_string
             (Json.Obj
                [ ("correct", Json.Bool correct);
                  ("attempted", Json.Num (float_of_int o.Workload.attempted));
                  ("failed", Json.Num (float_of_int o.Workload.failed)); ("metrics", line) ]));
        ( correct,
          Json.Obj
            [ ("name", Json.Str w.Workload.name); ("correct", Json.Bool correct);
              ("attempted", Json.Num (float_of_int o.Workload.attempted));
              ("failed", Json.Num (float_of_int o.Workload.failed));
              ("torn", Json.Num (float_of_int o.Workload.torn));
              ("metrics", metrics_json e2e_unit o.Workload.e2e (List.map fst o.Workload.e2e));
              ("layers", metrics_json layer_unit o.Workload.layers (List.map fst o.Workload.layers)) ] ))
      workloads
  in
  Json.to_file !out
    (Json.Obj
       [ ("seed", Json.Num (float_of_int !seed)); ("seconds", Json.Num !seconds);
         ("traced", Json.Bool !traced); ("workloads", Json.Arr (List.map snd results)) ]);
  if not (List.for_all fst results) then exit 1

(* A gain needs the change to win nine tenths of the run pairs (ties
   count for neither) and to move the median by more than the baseline's
   own quartile spread. Otherwise a metric is unresolved when either
   side's runs spread wider than the bound and the change does not read
   better on every run, worse when its median moved past the bound, and
   within bound. *)
let verdict (m : Catalog.e2e) a b =
  let better x y = match m.Catalog.better with Catalog.Lower -> y < x | Catalog.Higher -> y > x in
  let am = Stats.median a and bm = Stats.median b in
  let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let aq1, aq3 = Stats.quartiles a in
  let worse_by =
    let d = match m.Catalog.better with Catalog.Lower -> bm -. am | Catalog.Higher -> am -. bm in
    if am = 0. then if d > 0. then Float.infinity else 0. else d /. Float.abs am
  in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better x y) a) b in
  if pairs <> [] && wins * 10 >= 9 * List.length pairs && Float.abs (bm -. am) > aq3 -. aq1 then "better"
  else if Float.max (Stats.spread a) (Stats.spread b) > m.Catalog.bound && not all_better then "unresolved"
  else if worse_by > m.Catalog.bound then "worse"
  else "within bound"

let compare_cmd args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "compare: expected BASE.json... -- CHANGE.json..."
  in
  let base, change = split [] args in
  if base = [] || change = [] then die "compare: both sides need at least one result file";
  let load files =
    List.concat_map
      (fun f ->
        let j = try Json.of_file f with Sys_error e | Json.Parse_error e -> die "%s: %s" f e in
        List.concat_map
          (fun w ->
            let name = Option.value (Json.to_str (Json.member "name" w)) ~default:"?" in
            List.filter_map
              (fun (metric, v) ->
                Option.map (fun x -> ((name, metric), x)) (Json.to_float (Json.member "value" v)))
              (Json.to_assoc (Json.member "metrics" w)))
          (Json.to_list (Json.member "workloads" j)))
      files
  in
  let a = load base and b = load change in
  let values side key = List.filter_map (fun (k, v) -> if k = key then Some v else None) side in
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  Printf.printf "%-18s %-22s %30s %30s %8s  %s\n" "workload" "metric" "base median [q1, q3]"
    "change median [q1, q3]" "delta" "verdict";
  List.iter
    (fun ((w, metric) as key) ->
      match Catalog.find_e2e metric with
      | None -> ()
      | Some m ->
        let av = values a key and bv = values b key in
        if av <> [] && bv <> [] then begin
          let show xs =
            let q1, q3 = Stats.quartiles xs in
            Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3
          in
          let am = Stats.median av and bm = Stats.median bv in
          Printf.printf "%-18s %-22s %30s %30s %+7.1f%%  %s (bound %g%%, n=%d/%d)\n" w metric (show av)
            (show bv)
            (if am = 0. then 0. else 100. *. (bm -. am) /. Float.abs am)
            (verdict m av bv) (100. *. m.Catalog.bound) (List.length av) (List.length bv)
        end)
    keys

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run_cmd (Array.of_list ("run" :: rest))
  | _ :: "compare" :: rest -> compare_cmd rest
  | _ ->
    die
      "usage: sagma_bench run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
      \       sagma_bench compare BASE.json... -- CHANGE.json..."
