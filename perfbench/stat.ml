(* Order statistics and the one-line JSON result. *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile l p =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile l 50.

let mean l =
  match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let geomean l =
  match List.filter (fun x -> x > 0.) l with
  | [] -> 0.
  | l -> exp (mean (List.map log l))

(* The highest whole percentile with at least 10 values strictly beyond
   it, for at least 40 values: the tail the run can actually resolve. *)
let tail_percentile l =
  let n = List.length l in
  if n < 40 then None
  else
    let rec go p =
      if p <= 50 then 50
      else if float_of_int n *. (1. -. (float_of_int p /. 100.)) >= 10. then p
      else go (p - 1)
    in
    let p = go 99 in
    Some (p, percentile l (float_of_int p))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, and JSON has no NaN/infinity: those print as 0. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let result_line ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
          (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " ms)
