(* The three workloads.  Every query runs at one worker and stops on
   proof (relative gap [rel_gap]) or on a node budget, never on the
   clock: the wall-clock limits below sit far above any run's length,
   so a slow host changes the times but not the work. *)

open Archex
module BB = Milp.Branch_bound
module Clock = Milp.Clock

let rel_gap = 1e-4
let time_limit = 3600.
let proof_nodes = 200_000
let tabu_iters = 4_000
let now = Clock.now

let config ?(nodes = proof_nodes) ?(heuristic = Solver_config.no_heuristic) ?on_incumbent ~kstar () =
  let module C = Solver_config in
  let c =
    C.default |> C.with_approx ~kstar ~loc_kstar:20 () |> C.with_time_limit time_limit
    |> C.with_rel_gap rel_gap |> C.with_node_limit nodes |> C.with_heuristic heuristic
    |> C.with_parallelism { C.default.C.parallel with C.par_workers = 1 }
  in
  match on_incumbent with None -> c | Some f -> C.with_on_incumbent f c

(* The configuration the reference optima are rebuilt with. *)
let reference_config (c : Solver_config.t) =
  let open Solver_config in
  c
  |> with_kernel { c.kernel with k_cuts = false; k_cut_families = [] }
  |> with_presolving { c.presolve with ps_enabled = false }
  |> with_heuristic no_heuristic |> with_node_limit 5_000_000

(* One query's result. *)
type q = {
  id : string;
  ms : float;
  first_ms : float option;  (** Time to first incumbent, for queries that start without one. *)
  nodes : int;
  iters : int;
  obj : float;
  warm : bool;  (** Started from state a previous query left (incumbent, session). *)
  errors : string list;  (** Failed output checks: the answer is wrong. *)
  failed : string option;  (** No usable answer at all. *)
}

let failed_q id ms msg =
  { id; ms; first_ms = None; nodes = 0; iters = 0; obj = nan; warm = false; errors = []; failed = Some msg }

(* Per-layer samples, collected only on traced rounds. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  if !Trace.on && Float.is_finite v then
    Hashtbl.replace samples name (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let ms_of s = 1000. *. s

let shuffle seed l =
  let st = Random.State.make [| seed; 0x5eed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- checks shared by the workloads -------------------------------- *)

let refs : (string, Reference.entry) Hashtbl.t ref = ref (Hashtbl.create 1)

(* Agreement with the reference optimum of a proof query: both sides are
   within [rel_gap] of the true optimum. *)
let reference_errors ~key obj =
  match Hashtbl.find_opt !refs key with
  | None -> [ "no reference optimum for " ^ key ]
  | Some r ->
      if Check.close ~rel:(2. *. rel_gap) obj r.Reference.objective then []
      else [ Printf.sprintf "%s: objective %.9g, reference %.9g" key obj r.objective ]

(* The paper's property: the approximate optimum is never better than the
   full encoding's. *)
let full_errors ~name obj =
  match Hashtbl.find_opt !refs ("full:" ^ name) with
  | None -> []
  | Some r ->
      if Check.no_worse ~minimize:r.Reference.minimize ~slack:(2. *. rel_gap) r.objective obj
      then []
      else [ Printf.sprintf "approximate optimum %.9g beats the full encoding's %.9g" obj r.objective ]

(* ---- per-layer figures of one solver outcome ----------------------- *)

let outcome_layers (o : Outcome.t) =
  let m = o.Outcome.mip and s = o.Outcome.stats in
  sample "presolve.ms" (ms_of m.BB.presolve_time_s);
  sample "presolve.removed_share"
    (float_of_int (m.BB.presolve_rows_removed + m.BB.presolve_cols_removed)
    /. float_of_int (max 1 (s.Outcome.nvars + s.Outcome.nconstrs)));
  sample "presolve.reapplied_share" (if m.BB.presolve_reapplied then 1. else 0.);
  sample "simplex.iterations" (float_of_int m.BB.lp_iterations);
  if m.BB.elapsed > 0. then begin
    sample "simplex.iterations_per_s" (float_of_int m.BB.lp_iterations /. m.BB.elapsed);
    sample "branch_bound.nodes_per_s" (float_of_int m.BB.nodes /. m.BB.elapsed)
  end;
  let lps = m.BB.lp_warm + m.BB.lp_cold + m.BB.lp_fallback in
  if lps > 0 then sample "simplex.warm_share" (float_of_int m.BB.lp_warm /. float_of_int lps);
  sample "simplex.fallbacks" (float_of_int m.BB.lp_fallback);
  sample "cuts.separated" (float_of_int m.BB.cuts_separated);
  sample "cuts.applied" (float_of_int m.BB.cuts_applied);
  (let lp = m.BB.root_lp_bound and cut = m.BB.root_cut_bound and obj = m.BB.objective in
   if Float.is_finite lp && Float.is_finite cut && Float.abs (obj -. lp) > 1e-9 then
     sample "cuts.root_gap_closed" ((cut -. lp) /. (obj -. lp)));
  sample "branch_bound.nodes" (float_of_int m.BB.nodes);
  sample "branch_bound.pruned_share" (float_of_int m.BB.bound_pruned /. float_of_int (max 1 m.BB.nodes));
  if o.Outcome.status <> Milp.Status.Mip_optimal then sample "branch_bound.budget_gap" (BB.gap m);
  if s.Outcome.heuristic_time_s > 0. then sample "tabu.ms" (ms_of s.Outcome.heuristic_time_s);
  sample "solution.extract_ms" (ms_of s.Outcome.extract_time_s);
  sample "encode.vars" (float_of_int s.Outcome.nvars);
  sample "encode.rows" (float_of_int s.Outcome.nconstrs)

let lu_layers ~iters ~rows =
  let st = Milp.Lu.stats () in
  sample "lu.factorizations" (float_of_int st.Milp.Lu.s_factorizations);
  if st.Milp.Lu.s_factorizations > 0 then
    sample "lu.iterations_per_factorization"
      (float_of_int iters /. float_of_int st.Milp.Lu.s_factorizations);
  sample "lu.ftran_calls" (float_of_int st.Milp.Lu.s_ftran_calls);
  sample "lu.btran_calls" (float_of_int st.Milp.Lu.s_btran_calls);
  if st.Milp.Lu.s_ftran_calls > 0 && rows > 0 then
    sample "lu.ftran_density"
      (float_of_int st.Milp.Lu.s_ftran_nnz /. (float_of_int st.Milp.Lu.s_ftran_calls *. float_of_int rows))

(* Layers the solver does not time on its own, measured on a copy of the
   query's model after the query: the cold root LP, [Lu.factorize] on
   its optimal basis, and the root cut loop (root with cuts minus root
   without). *)
let shadow_layers ~query ~parent (cfg : Solver_config.t) (model : Milp.Model.t) =
  let p = Milp.Simplex.of_model model in
  let n = Milp.Model.nvars model in
  let lb = Array.init n (Milp.Model.var_lb model) and ub = Array.init n (Milp.Model.var_ub model) in
  let t0 = now () in
  let r = Milp.Simplex.solve p ~lb ~ub in
  let t1 = now () in
  sample "simplex.root_ms" (ms_of (t1 -. t0));
  ignore (Trace.add ~cat:"shadow" ~parent ~query "simplex.root" t0 t1);
  (match r.Milp.Simplex.basis with
  | None -> ()
  | Some b ->
      let m = Array.length p.Milp.Simplex.rows in
      let cols = Array.make n [] in
      Array.iteri
        (fun i row -> Array.iter (fun (j, c) -> cols.(j) <- (i, c) :: cols.(j)) row)
        p.Milp.Simplex.rows;
      let cols = Array.map (fun l -> Array.of_list (List.rev l)) cols in
      let col k =
        let j = b.Milp.Basis.basis.(k) in
        if j < n then cols.(j) else [| ((j - n) mod m, 1.) |]
      in
      let t0 = now () in
      ignore (Milp.Lu.factorize ~m col);
      let t1 = now () in
      sample "lu.factorize_ms" (ms_of (t1 -. t0));
      ignore (Trace.add ~cat:"shadow" ~parent ~query "lu.factorize" t0 t1));
  let root cuts =
    let o = { (Solver_config.bb_options cfg) with BB.node_limit = 1; cuts } in
    let t0 = now () in
    ignore (BB.solve ~options:o model);
    now () -. t0
  in
  let t0 = now () in
  let with_cuts = root true in
  let without = root false in
  sample "cuts.root_ms" (ms_of (Float.max 0. (with_cuts -. without)));
  ignore (Trace.add ~cat:"shadow" ~parent ~query "cuts.root" t0 (now ()))

(* Spans of one [Session.solve]/[Solve.run] call: the phases inside come
   from the outcome's own timers, laid out in call order. *)
let solve_spans ~query ~parent (o : Outcome.t) s0 s1 =
  let m = o.Outcome.mip and st = o.Outcome.stats in
  let h = st.Outcome.heuristic_time_s and p = m.BB.presolve_time_s in
  let tree = Float.max 0. (m.BB.elapsed -. p) and x = st.Outcome.extract_time_s in
  let a = s0 +. h in
  ignore (Trace.add ~parent ~query "tabu" s0 a);
  ignore (Trace.add ~parent ~query "presolve" a (a +. p));
  ignore (Trace.add ~parent ~query "branch_bound" (a +. p) (a +. p +. tree));
  (* What no layer timer accounts for stays out of the coverage figure. *)
  let own = Float.max 0. (s1 -. s0 -. (h +. p +. tree +. x)) in
  ignore (Trace.add ~cat:"residual" ~parent ~query "unattributed" (a +. p +. tree) (a +. p +. tree +. own));
  ignore (Trace.add ~parent ~query "solution.extract" (s1 -. x) s1)

(* After each query of a traced run the runtime's event ring is drained,
   so that no query overruns it. *)
let traced_query ~traced f =
  let q =
    if not traced then f ~query:(-1)
    else begin
      Milp.Lu.reset_stats ();
      f ~query:!Trace.next_id
    end
  in
  Trace.gc_poll ();
  q

(* ---- design-sweep --------------------------------------------------- *)

type template = {
  t_name : string;
  t_build : unit -> (Instance.t, string) result;
  t_sched : int list;
  t_budget : (int * int) list;  (** K* -> node budget, for the known-fault steps. *)
}

let registry name () = Result.bind (Scenario.find name) Scenario.instance

let generated spec () = Scenario_gen.build spec

(* A known fault kept under a node budget: the dc-mixed session grown to
   K* = 6 (521 columns) stalls -- bound 104.96 against the optimum 130.43
   after 100 nodes -- while the same instance solved one-shot at K* = 6
   (467 columns) proves in 269 nodes. *)
let fault_budget = 25

(* Each schedule ends before the first grown step whose tree runs past a
   few hundred nodes: deep trees are the deep-tree workload's job. *)
let templates =
  let open Scenario_gen in
  let t ?(budget = []) name build sched = { t_name = name; t_build = build; t_sched = sched; t_budget = budget } in
  [
    t "dc-small-dollar" (registry "dc-small-dollar") [ 2; 3; 4; 6 ];
    t "dc-small-energy" (registry "dc-small-energy") [ 2; 3; 4 ];
    t "dc-small-mixed" (registry "dc-small-mixed") [ 2; 3; 4; 6 ];
    t "dc-dollar" (registry "dc-dollar") [ 2; 3; 4 ];
    t "dc-mixed" (registry "dc-mixed") [ 2; 3; 4; 6 ] ~budget:[ (6, fault_budget) ];
    t "gen-mf-base" (generated (multi_floor ~seed:7 ())) [ 2; 3; 4; 6 ];
    t "gen-mf-jam" (generated (multi_floor ~variant:Jammed ~seed:7 ())) [ 2; 3; 4 ];
    t "gen-mf-atten" (generated (multi_floor ~variant:Attenuated ~seed:7 ())) [ 2; 3 ];
    t "gen-mf-small" (generated (multi_floor ~sensors:6 ~relay_grid:(6, 4) ~seed:11 ())) [ 2; 3; 4; 6 ];
    t "gen-city-base" (generated (city_block ~seed:7 ())) [ 2; 3; 4; 6 ];
    t "gen-city-small" (generated (city_block ~sensors:6 ~relay_grid:(6, 5) ~seed:11 ())) [ 2; 3; 4; 6 ];
    t "gen-city-jam"
      (generated (city_block ~sensors:6 ~relay_grid:(6, 5) ~variant:Jammed ~seed:11 ()))
      [ 2; 3; 4; 6 ];
  ]

let step_id tpl k = Printf.sprintf "sweep:%s@k%d" tpl.t_name k
let budget_of tpl k = List.assoc_opt k tpl.t_budget

let build_or_fail name build =
  match build () with Ok i -> i | Error e -> failwith (name ^ ": " ^ e)

(* One template's sweep: a query per grow+solve step. *)
let sweep_template ~traced (tpl, inst) =
  let first = ref nan in
  let on_incumbent _ _ = if Float.is_nan !first then first := now () in
  let cfg k = config ?nodes:(budget_of tpl k) ~on_incumbent ~kstar:k () in
  let session = ref None in
  let shadow_gen = ref None in
  let prev = ref None in
  List.map
    (fun k ->
      let id = step_id tpl k in
      traced_query ~traced (fun ~query ->
          first := nan;
          let q0 = now () in
          let s =
            match !session with
            | Some s ->
                Session.reconfigure s (cfg k);
                s
            | None ->
                let s = Session.start (cfg k) inst in
                session := Some s;
                s
          in
          let g0 = now () in
          match Session.grow s ~kstar:k with
          | Error e -> failed_q id (ms_of (now () -. q0)) ("grow failed: " ^ e)
          | Ok () ->
              let g1 = now () in
              let o = Session.solve s in
              let q1 = now () in
              let mip = o.Outcome.mip in
              let proof = budget_of tpl k = None in
              let minimize = Check.is_min o.Outcome.model in
              let errors =
                Check.outcome ~rel_gap inst o
                @ (if (not proof) || o.Outcome.status = Milp.Status.Mip_optimal then []
                   else [ "proof query ended " ^ Milp.Status.mip_status_to_string o.Outcome.status ])
                @ (if proof then reference_errors ~key:id mip.BB.objective else [])
                @ (if proof then full_errors ~name:tpl.t_name mip.BB.objective else [])
                @
                match !prev with
                | Some p when not (Check.no_worse ~minimize mip.BB.objective p) ->
                    [ Printf.sprintf "objective worsened along the sweep: %.9g after %.9g" mip.BB.objective p ]
                | _ -> []
              in
              let starts_empty = !prev = None in
              prev := Some mip.BB.objective;
              if traced then begin
                let root = Trace.add ~cat:"query" ~parent:(-1) ~query id q0 q1 in
                let gs = Trace.add ~parent:root ~query "session.grow" q0 g1 in
                (* Path generation inside the grow, timed on a shadow
                   generation state fed the same schedule. *)
                let p0 = now () in
                let st = match !shadow_gen with Some st -> st | None -> Path_gen.init inst in
                ignore (Path_gen.extend st ~kstar:k);
                let p1 = now () in
                shadow_gen := Some st;
                let pg = Float.min (p1 -. p0) (g1 -. q0) in
                ignore (Trace.add ~parent:gs ~query "path_gen" q0 (q0 +. pg));
                ignore (Trace.add ~parent:gs ~query "encode" (q0 +. pg) g1);
                ignore (Trace.add ~cat:"shadow" ~parent:root ~query "path_gen.shadow" p0 p1);
                sample "path_gen.ms" (ms_of pg);
                sample "path_gen.paths" (float_of_int o.Outcome.stats.Outcome.delta_paths);
                sample "encode.ms" (ms_of (g1 -. q0 -. pg));
                sample "session.grow_ms" (ms_of (g1 -. g0));
                sample "session.delta_paths" (float_of_int o.Outcome.stats.Outcome.delta_paths);
                sample "session.cuts_seeded" (float_of_int mip.BB.cuts_seeded);
                let ss = Trace.add ~parent:root ~query "session.solve" g1 q1 in
                solve_spans ~query ~parent:ss o g1 q1;
                outcome_layers o;
                lu_layers ~iters:mip.BB.lp_iterations ~rows:o.Outcome.stats.Outcome.nconstrs;
                shadow_layers ~query ~parent:root (cfg k) o.Outcome.model
              end;
              {
                id;
                ms = ms_of (q1 -. q0);
                first_ms =
                  (if not starts_empty then None
                   else if Float.is_nan !first then Some (ms_of (q1 -. q0))
                   else Some (ms_of (!first -. q0)));
                nodes = mip.BB.nodes;
                iters = mip.BB.lp_iterations;
                obj = mip.BB.objective;
                warm = not starts_empty;
                errors;
                failed = None;
              }))
    tpl.t_sched

(* ---- deep-tree ------------------------------------------------------ *)

type deep = { d_name : string; d_nodes : int option; d_tabu : bool }

let deep_kstar = 4
let deep_budget = 600

let deep_queries =
  [
    { d_name = "tac-mf3"; d_nodes = None; d_tabu = false };
    { d_name = "tac-city2-corridor"; d_nodes = None; d_tabu = false };
    { d_name = "tac-mf2-atten"; d_nodes = None; d_tabu = false };
    { d_name = "dc-small-energy"; d_nodes = None; d_tabu = false };
    { d_name = "dc-energy"; d_nodes = Some deep_budget; d_tabu = false };
    { d_name = "tac-city3"; d_nodes = Some deep_budget; d_tabu = true };
  ]

let oneshot_id name k = Printf.sprintf "oneshot:%s@k%d" name k

let deep_config ?on_incumbent d =
  let heuristic =
    if d.d_tabu then Solver_config.tabu ~iters:tabu_iters ~time_s:time_limit () else Solver_config.no_heuristic
  in
  config ?nodes:d.d_nodes ~heuristic ?on_incumbent ~kstar:deep_kstar ()

let deep_query ~traced (d, inst) =
  let id = oneshot_id d.d_name deep_kstar in
  traced_query ~traced (fun ~query ->
      let first = ref nan in
      let on_incumbent _ _ = if Float.is_nan !first then first := now () in
      let cfg = deep_config ~on_incumbent d in
      let q0 = now () in
      match Solve.run cfg inst with
      | Error e -> failed_q id (ms_of (now () -. q0)) ("encode failed: " ^ e)
      | Ok o ->
          let q1 = now () in
          let mip = o.Outcome.mip and st = o.Outcome.stats in
          let proof = d.d_nodes = None in
          let errors =
            Check.outcome ~rel_gap inst o
            @ (if (not proof) || o.Outcome.status = Milp.Status.Mip_optimal then []
               else [ "proof query ended " ^ Milp.Status.mip_status_to_string o.Outcome.status ])
            @ if proof then reference_errors ~key:id mip.BB.objective else []
          in
          (* The tabu incumbent enters the tree as a warm solution, which
             fires no incumbent callback: it is in hand once the search
             returns. *)
          let first_at =
            let tabu_at = if st.Outcome.heuristic_time_s > 0. then q0 +. st.Outcome.encode_time_s +. st.Outcome.heuristic_time_s else infinity in
            let hook_at = if Float.is_nan !first then infinity else !first in
            let t = Float.min tabu_at hook_at in
            if Float.is_finite t then t else q1
          in
          if traced then begin
            let root = Trace.add ~cat:"query" ~parent:(-1) ~query id q0 q1 in
            let run = Trace.add ~parent:root ~query "solve.run" q0 q1 in
            let e1 = q0 +. st.Outcome.encode_time_s in
            let p0 = now () in
            ignore (Path_gen.generate ~kstar:deep_kstar inst);
            let pg = Float.min (now () -. p0) st.Outcome.encode_time_s in
            ignore (Trace.add ~cat:"shadow" ~parent:root ~query "path_gen.shadow" p0 (now ()));
            ignore (Trace.add ~parent:run ~query "path_gen" q0 (q0 +. pg));
            ignore (Trace.add ~parent:run ~query "encode" (q0 +. pg) e1);
            sample "path_gen.ms" (ms_of pg);
            sample "path_gen.paths" (float_of_int st.Outcome.pool_size);
            sample "encode.ms" (ms_of (st.Outcome.encode_time_s -. pg));
            solve_spans ~query ~parent:run o e1 q1;
            outcome_layers o;
            lu_layers ~iters:mip.BB.lp_iterations ~rows:st.Outcome.nconstrs;
            shadow_layers ~query ~parent:root cfg o.Outcome.model
          end;
          {
            id;
            ms = ms_of (q1 -. q0);
            first_ms = Some (ms_of (first_at -. q0));
            nodes = mip.BB.nodes;
            iters = mip.BB.lp_iterations;
            obj = mip.BB.objective;
            warm = false;
            errors;
            failed = None;
          })

(* ---- daemon-mix ----------------------------------------------------- *)

let daemon_names =
  [ "dc-small-dollar"; "dc-small-energy"; "dc-small-mixed"; "tac-smoke"; "tac-mf2"; "tac-mf2-jam"; "dc-dollar"; "dc-mixed" ]

(* One visit per workload and round: a cold miss at K* = 2, a warm grow
   to 4, then warm re-solves below and at the grown K*.  Eight workloads
   against four cache slots, so the later visits evict the earlier
   sessions.  The order is fixed and does not take the seed: which
   sessions share the cache sets the heap they hold together, and a
   seeded order spread the peak heap across seeds by a third of its
   median (a seeded start in this cycle) or a fifth (a seeded shuffle). *)
let daemon_visit = [ 2; 4; 3; 4; 2; 3 ]

let daemon_sequence =
  List.concat_map (fun name -> List.map (fun k -> (name, k)) daemon_visit) daemon_names

let overrides =
  {
    Server.Protocol.no_overrides with
    Server.Protocol.o_time_limit = Some time_limit;
    o_rel_gap = Some rel_gap;
    o_workers = Some 1;
    o_heuristic = Some "off";
    o_stream = true;
  }

type daemon = { dm_daemon : Server.Daemon.t; dm_thread : Thread.t; dm_clean : bool ref; dm_conn : Server.Client.conn }

let socket_path () = Printf.sprintf "perfbench/out/d%d.sock" (Unix.getpid ())

let daemon_start () =
  let cfg =
    {
      Server.Daemon.default_config with
      Server.Daemon.c_socket = socket_path ();
      c_workers = 1;
      c_max_active = 1;
      c_max_waiting = 1;
      c_cache_capacity = 4;
      c_time_limit = time_limit;
      c_drain_timeout = 60.;
    }
  in
  match Server.Daemon.create cfg with
  | Error e -> failwith ("daemon start failed: " ^ e)
  | Ok d ->
      let clean = ref false in
      let th = Thread.create (fun () -> clean := Server.Daemon.run d) () in
      let conn =
        match Server.Client.connect cfg.Server.Daemon.c_socket with
        | Ok c -> c
        | Error e -> failwith ("connect failed: " ^ e)
      in
      (match Server.Client.ping conn with
      | Ok (Server.Protocol.Pong _) -> ()
      | _ -> failwith "daemon did not answer a ping");
      { dm_daemon = d; dm_thread = th; dm_clean = clean; dm_conn = conn }

let daemon_stop dm =
  Server.Client.disconnect dm.dm_conn;
  Server.Daemon.request_shutdown dm.dm_daemon;
  Thread.join dm.dm_thread;
  if not !(dm.dm_clean) then failwith "daemon drain failed"

let frame_bytes req resp =
  8 + Bytes.length (Server.Protocol.encode_request req) + Bytes.length (Server.Protocol.encode_response resp)

(* Session state the client can infer from the cache-hit flag: the K*
   the cached session was created at, so a warm answer can be held to
   the optimum of the model it grew from. *)
let daemon_round ~traced dm seq =
  let created = Hashtbl.create 8 in
  let seen = Hashtbl.create 64 in
  List.map
    (fun (name, k) ->
      let nth = 1 + Option.value (Hashtbl.find_opt seen (name, k)) ~default:0 in
      Hashtbl.replace seen (name, k) nth;
      let id = Printf.sprintf "daemon:%s@k%d.%d" name k nth in
      traced_query ~traced (fun ~query ->
          let first = ref nan in
          let updates = ref 0 in
          let on_update ~objective:_ ~bound:_ ~elapsed_s:_ =
            incr updates;
            if Float.is_nan !first then first := now ()
          in
          let payload = Server.Protocol.Workload { name; kstar = k } in
          let q0 = now () in
          let r = Server.Client.solve ~on_update dm.dm_conn payload overrides in
          let q1 = now () in
          match r with
          | Ok (Server.Protocol.Result ri as resp) ->
              let hit = ri.Server.Protocol.r_cache_hit in
              if not hit then Hashtbl.replace created name k;
              let k0 = Option.value (Hashtbl.find_opt created name) ~default:k in
              let minimize =
                match Hashtbl.find_opt !refs (oneshot_id name k0) with
                | Some r -> r.Reference.minimize
                | None -> true
              in
              let obj = ri.Server.Protocol.r_objective in
              let status_ok = ri.Server.Protocol.r_status = Milp.Status.mip_status_to_string Milp.Status.Mip_optimal in
              let errors =
                (if status_ok then [] else [ "request ended " ^ ri.Server.Protocol.r_status ])
                @ Check.bound_errors ~minimize ~rel_gap ~status:Milp.Status.Mip_optimal ~objective:obj
                    ~bound:ri.Server.Protocol.r_bound
                @ (if not hit then reference_errors ~key:(oneshot_id name k) obj
                   else
                     match Hashtbl.find_opt !refs (oneshot_id name k0) with
                     | None -> [ "no reference optimum for " ^ oneshot_id name k0 ]
                     | Some r ->
                         if Check.no_worse ~minimize ~slack:(2. *. rel_gap) obj r.Reference.objective then []
                         else [ Printf.sprintf "warm answer %.9g worse than the K*=%d optimum %.9g" obj k0 r.objective ])
                @ full_errors ~name obj
              in
              if traced then begin
                let root = Trace.add ~cat:"query" ~parent:(-1) ~query id q0 q1 in
                let call = Trace.add ~parent:root ~query "client.solve" q0 q1 in
                let solve = ri.Server.Protocol.r_solve_time_s in
                let s0 = Float.max q0 (q1 -. solve) in
                ignore (Trace.add ~parent:call ~query "server.overhead" q0 s0);
                ignore (Trace.add ~parent:call ~query "server.solve" s0 q1);
                sample "server.overhead_ms" (ms_of (q1 -. q0 -. solve));
                sample "server.cache_hit_share" (if hit then 1. else 0.);
                sample "server.frame_bytes"
                  (float_of_int
                     (frame_bytes (Server.Protocol.Solve { payload; overrides }) resp
                     + (!updates * (4 + 25))));
                sample "branch_bound.nodes" (float_of_int ri.Server.Protocol.r_nodes);
                sample "simplex.iterations" (float_of_int ri.Server.Protocol.r_lp_iterations);
                if solve > 0. then begin
                  sample "branch_bound.nodes_per_s" (float_of_int ri.Server.Protocol.r_nodes /. solve);
                  sample "simplex.iterations_per_s" (float_of_int ri.Server.Protocol.r_lp_iterations /. solve)
                end;
                lu_layers ~iters:ri.Server.Protocol.r_lp_iterations ~rows:0
              end;
              {
                id;
                ms = ms_of (q1 -. q0);
                first_ms =
                  (if hit then None
                   else if Float.is_nan !first then Some (ms_of (q1 -. q0))
                   else Some (ms_of (!first -. q0)));
                nodes = ri.Server.Protocol.r_nodes;
                iters = ri.Server.Protocol.r_lp_iterations;
                obj;
                warm = hit;
                errors;
                failed = None;
              }
          | Ok (Server.Protocol.Rejected m) ->
              sample "server.rejected" 1.;
              failed_q id (ms_of (q1 -. q0)) ("rejected: " ^ m)
          | Ok _ -> failed_q id (ms_of (q1 -. q0)) "unexpected response"
          | Error e -> failed_q id (ms_of (q1 -. q0)) e))
    seq

(* Daemon answers on fresh sessions against one-shot [Solve.run] under
   the same configuration: the same tree, so the same objective to 1e-6. *)
let daemon_oneshot_errors instances (round : q list) seq =
  let seen = Hashtbl.create 16 in
  List.concat
    (List.map2
       (fun (name, k) q ->
         match q.failed with
         | Some _ -> []
         | None ->
             if q.warm || Hashtbl.mem seen (name, k) then []
             else begin
               Hashtbl.replace seen (name, k) ();
               let inst = List.assoc name instances in
               match Solve.run (config ~kstar:k ()) inst with
               | Error e -> [ q.id ^ ": one-shot failed: " ^ e ]
               | Ok o ->
                   let errs = Check.outcome ~rel_gap inst o in
                   if Check.close ~rel:1e-6 o.Outcome.mip.BB.objective q.obj then errs
                   else
                     Printf.sprintf "%s: daemon %.12g, one-shot %.12g" q.id q.obj o.Outcome.mip.BB.objective
                     :: errs
             end)
       seq round)
