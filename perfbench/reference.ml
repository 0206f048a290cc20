(* Reference optima, one line per proof query:
     <query id> TAB <min|max> TAB <objective> TAB <nodes>
   rebuilt by [main.exe reference] under a configuration the benchmark
   never runs (no cuts, no presolve, no heuristic), so a fault in one of
   those layers cannot hide in both figures. *)

type entry = { minimize : bool; objective : float; nodes : int }

let path = "perfbench/reference.tsv"

let load () : (string, entry) Hashtbl.t =
  let t = Hashtbl.create 64 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 && line.[0] <> '#' then
             match String.split_on_char '\t' line with
             | [ id; dir; obj; nodes ] ->
                 Hashtbl.replace t id
                   { minimize = dir = "min"; objective = float_of_string obj; nodes = int_of_string nodes }
             | _ -> failwith ("bad reference line: " ^ line)
         done
       with End_of_file -> ());
      close_in ic);
  t

let save (entries : (string * entry) list) =
  let oc = open_out path in
  output_string oc
    "# Reference optima for every proof query of the benchmark, rebuilt by\n\
     # `sh perfbench/run.sh reference` with cuts none, presolve off and the\n\
     # heuristic off, at the benchmark's relative gap.\n\
     # id\tdirection\tobjective\tnodes\n";
  List.iter
    (fun (id, e) ->
      Printf.fprintf oc "%s\t%s\t%.17g\t%d\n" id (if e.minimize then "min" else "max") e.objective e.nodes)
    entries;
  close_out oc
