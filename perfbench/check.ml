(* Independent output checks.  Every returned solution is re-evaluated
   against the original model with this file's own arithmetic: no call
   to [Model.check_feasible], [Lin.eval] or [Solution.check]. *)

open Archex
module M = Milp.Model
module BB = Milp.Branch_bound

let tol = 1e-6

let is_min model = fst (M.objective model) = M.Minimize

(* [a] is no worse than [b] in the objective's direction, up to [slack]
   relative to the larger magnitude. *)
let no_worse ~minimize ?(slack = tol) a b =
  let t = slack *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  if minimize then a <= b +. t else a >= b -. t

let close ?(rel = tol) a b =
  Float.abs (a -. b) <= rel *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let dot x lin = List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0. (Milp.Lin.terms lin)

let solution_errors model x =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  let n = M.nvars model in
  if Array.length x <> n then add (Printf.sprintf "solution has %d values for %d vars" (Array.length x) n)
  else begin
    for v = 0 to n - 1 do
      let xv = x.(v) and lb = M.var_lb model v and ub = M.var_ub model v in
      if not (Float.is_finite xv) then add (Printf.sprintf "var %d is %g" v xv)
      else begin
        if xv < lb -. (tol *. Float.max 1. (Float.abs lb)) then
          add (Printf.sprintf "var %s = %g below %g" (M.var_name model v) xv lb);
        if xv > ub +. (tol *. Float.max 1. (Float.abs ub)) then
          add (Printf.sprintf "var %s = %g above %g" (M.var_name model v) xv ub);
        if M.is_integer model v && Float.abs (xv -. Float.round xv) > tol then
          add (Printf.sprintf "var %s = %g not integral" (M.var_name model v) xv)
      end
    done;
    M.iter_constrs
      (fun i (c : M.constr) ->
        let lhs = dot x c.M.c_expr +. Milp.Lin.constant c.M.c_expr in
        let scale =
          List.fold_left
            (fun acc (v, a) -> Float.max acc (Float.abs (a *. x.(v))))
            (Float.max 1. (Float.abs c.M.c_rhs))
            (Milp.Lin.terms c.M.c_expr)
        in
        let t = tol *. scale in
        let ok =
          match c.M.c_sense with
          | M.Le -> lhs <= c.M.c_rhs +. t
          | M.Ge -> lhs >= c.M.c_rhs -. t
          | M.Eq -> Float.abs (lhs -. c.M.c_rhs) <= t
        in
        if not ok then add (Printf.sprintf "row %d (%s): lhs %g vs rhs %g" i c.M.c_name lhs c.M.c_rhs))
      model
  end;
  List.rev !errs

let route_errors (inst : Instance.t) (sol : Solution.t) =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  let active = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace active e ()) sol.Solution.active_edges;
  let routes = Array.of_list inst.Instance.requirements.Requirements.routes in
  let edges p =
    let rec go acc = function a :: (b :: _ as tl) -> go ((a, b) :: acc) tl | _ -> List.rev acc in
    go [] p
  in
  List.iter
    (fun (rr : Solution.route_result) ->
      let r = routes.(rr.Solution.rr_req) in
      let p = rr.Solution.rr_path in
      (match p with
      | [] -> add "empty route"
      | first :: _ ->
          if first <> r.Requirements.src then add (Printf.sprintf "route %d starts at %d" rr.rr_req first);
          if List.nth p (List.length p - 1) <> r.Requirements.dst then
            add (Printf.sprintf "route %d does not end at its sink" rr.rr_req));
      if List.length (List.sort_uniq compare p) <> List.length p then
        add (Printf.sprintf "route %d revisits a node" rr.rr_req);
      List.iter
        (fun e ->
          if not (Hashtbl.mem active e) then
            add (Printf.sprintf "route %d uses inactive edge %d->%d" rr.rr_req (fst e) (snd e)))
        (edges p))
    sol.Solution.routes;
  Array.iteri
    (fun i (r : Requirements.route) ->
      let reps = List.filter (fun (rr : Solution.route_result) -> rr.Solution.rr_req = i) sol.Solution.routes in
      if List.length reps <> r.Requirements.replicas then
        add (Printf.sprintf "route %d has %d replicas, needs %d" i (List.length reps) r.replicas);
      let sets = List.map (fun (rr : Solution.route_result) -> edges rr.Solution.rr_path) reps in
      let rec pairs = function
        | [] -> ()
        | a :: tl ->
            List.iter
              (fun b -> if List.exists (fun e -> List.mem e b) a then add (Printf.sprintf "route %d replicas share an edge" i))
              tl;
            pairs tl
      in
      pairs sets)
    routes;
  List.rev !errs

(* Bound on the right side of the objective, and a proven gap within
   the configured one. *)
let bound_errors ~minimize ~rel_gap ~status ~objective ~bound =
  let errs = ref [] in
  if not (no_worse ~minimize bound objective) then
    errs := Printf.sprintf "bound %.9g beyond objective %.9g" bound objective :: !errs;
  (if status = Milp.Status.Mip_optimal then
     let gap = Float.abs (objective -. bound) in
     if gap > (rel_gap *. Float.max 1e-10 (Float.abs objective)) +. 1e-8 then
       errs := Printf.sprintf "optimal with gap %.3g" (gap /. Float.abs objective) :: !errs);
  !errs

(* Every check on one solver outcome, in original-model space. *)
let outcome ~rel_gap (inst : Instance.t) (o : Outcome.t) =
  let mip = o.Outcome.mip in
  let model = o.Outcome.model in
  match (mip.BB.solution, o.Outcome.solution) with
  | None, _ | _, None -> [ "no solution returned" ]
  | Some x, Some sol ->
      let obj_lin = snd (M.objective model) in
      let obj = dot x obj_lin +. Milp.Lin.constant obj_lin in
      let cost =
        List.fold_left (fun acc (_, d) -> acc +. d.Components.Component.cost) 0. sol.Solution.devices
      in
      solution_errors model x
      @ (if close obj mip.BB.objective then []
         else [ Printf.sprintf "objective %.9g recomputes to %.9g" mip.BB.objective obj ])
      @ (if close cost sol.Solution.dollar_cost then []
         else [ Printf.sprintf "dollar cost %.9g recomputes to %.9g" sol.Solution.dollar_cost cost ])
      @ route_errors inst sol
      @ bound_errors ~minimize:(is_min model) ~rel_gap ~status:o.Outcome.status
          ~objective:mip.BB.objective ~bound:mip.BB.bound
