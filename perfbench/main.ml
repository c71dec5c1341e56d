(* perfbench: run one workload and print its metrics.

   main.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is the result as one JSON object.  The
   exit code is 0 when every operation succeeded and every output checked,
   1 when one did not, and 2 on a usage error (with no result printed).
   Traced runs write their spans under perfbench/out/. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload <"
    ^ String.concat "|" (List.map fst Perfbench.Bench.workloads)
    ^ "> --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let w =
    match List.assoc_opt !workload Perfbench.Bench.workloads with Some w -> w | None -> usage ()
  in
  let report =
    if !trace = 1 then
      let out_dir = Filename.concat "perfbench" "out" in
      Ok (Perfbench.Bench.traced w ~seed:!seed ~seconds:!seconds ~out_dir)
    else Perfbench.Bench.untraced w ~seed:!seed ~seconds:!seconds
  in
  match report with
  | Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  | Ok r ->
      List.iter print_endline r.notes;
      print_endline (Perfbench.Bench.json r);
      exit (if r.correct then 0 else 1)
