(* Spans recorded in the benchmark around each public layer call, kept
   in memory and written out once at the end as Chrome trace events.
   Recording is off unless [enable] was called, so the untraced run
   pays one branch per span. *)

type span = {
  id : int;
  name : string;
  cat : string;
      (** ["query"], ["layer"], ["residual"] (time inside a layer call no
          timer accounts for) or ["shadow"] (timed on a copy, outside the
          query). *)
  t0 : float;
  t1 : float;
  parent : int;  (** [-1] for a query's root span. *)
  query : int;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0

let enable () = on := true

let add ?(cat = "layer") ~parent ~query name t0 t1 =
  if not !on then -1
  else begin
    let id = !next_id in
    incr next_id;
    spans := { id; name; cat; t0; t1; parent; query } :: !spans;
    id
  end

let count () = List.length !spans

(* Sum of the leaf layer durations under one query root: the share of
   the query's wall time that some named layer accounts for. *)
let coverage ~root =
  let kids = Hashtbl.create 16 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) !spans;
  let rec leaves s =
    match Hashtbl.find_all kids s.id |> List.filter (fun k -> k.cat = "layer") with
    | [] -> s.t1 -. s.t0
    | ks -> List.fold_left (fun acc k -> acc +. leaves k) 0. ks
  in
  match List.find_opt (fun s -> s.id = root) !spans with
  | None -> 0.
  | Some r ->
      let wall = r.t1 -. r.t0 in
      let covered =
        List.fold_left (fun acc k -> acc +. leaves k) 0.
          (List.filter (fun k -> k.cat = "layer") (Hashtbl.find_all kids r.id))
      in
      if wall > 0. then covered /. wall else 0.

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"span\": %d, \"parent\": %d, \"query\": %d}}"
        (if i = 0 then "" else ",\n")
        (Stat.json_string s.name) (Stat.json_string s.cat)
        (if s.cat = "shadow" then 2 else 1)
        (1e6 *. (s.t0 -. origin))
        (1e6 *. (s.t1 -. s.t0))
        s.id s.parent s.query)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* Stop-the-world time of the benchmark's own process, read from the
   runtime's event ring: minor collections and major slices. *)
let gc_pause_ns = ref 0L
let gc_lost_events = ref 0
let gc_cursor = ref None
let gc_open : (int * Runtime_events.runtime_phase, Runtime_events.Timestamp.t) Hashtbl.t =
  Hashtbl.create 8

let gc_events_start () =
  Runtime_events.start ();
  gc_cursor := Some (Runtime_events.create_cursor None)

let gc_poll () =
  match !gc_cursor with
  | None -> ()
  | Some c ->
      let tracked = function
        | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
        | _ -> false
      in
      let runtime_begin dom ts phase =
        if tracked phase then Hashtbl.replace gc_open (dom, phase) ts
      in
      let runtime_end dom ts phase =
        if tracked phase then
          match Hashtbl.find_opt gc_open (dom, phase) with
          | Some t0 ->
              Hashtbl.remove gc_open (dom, phase);
              gc_pause_ns :=
                Int64.add !gc_pause_ns
                  (Int64.sub
                     (Runtime_events.Timestamp.to_int64 ts)
                     (Runtime_events.Timestamp.to_int64 t0))
          | None -> ()
      in
      let lost_events _ n = gc_lost_events := !gc_lost_events + n in
      let cb = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
      ignore (Runtime_events.read_poll c cb None)

let gc_pause_ms () =
  gc_poll ();
  Int64.to_float !gc_pause_ns /. 1e6
