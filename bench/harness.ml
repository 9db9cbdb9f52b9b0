(* The one emitter and the one gate behind every experiment.

   An experiment declares its table's columns once — a name, a printf
   format and a kind — and returns its rows as cells. The harness prints
   the table (header widths follow the cells), writes BENCH_<e>.json
   with the rows, the gated counters, the notes and verdicts, the wall
   time and the merged metrics, and gates the counters against
   bench/baselines/<e>.json when that file exists. A failed verdict or a
   drifted counter makes [run] return false, and the bench exits 1.

   Refresh a baseline after an intended change, in the same commit:

     dune exec bench/main.exe -- e16 && \
       jq '{experiment, counters}' _bench/BENCH_e16.json \
       > bench/baselines/e16.json *)

module Json = Ariesrh_obs.Json
module Metrics = Ariesrh_obs.Metrics
module Db = Ariesrh_core.Db

type kind =
  | Label  (** part of the row's key *)
  | Wall  (** reported, never gated *)
  | Cost  (** fails when it grows more than [tolerance] over its baseline *)
  | Work  (** fails when it shrinks more than [tolerance] below it *)

type col = {
  name : string;  (** the JSON key *)
  head : string;  (** the printed header, [name] unless given *)
  fmt : string;  (** renders one cell *)
  group : bool;  (** starts a column group: [fmt] began with "| " *)
  kind : kind;
}

let col kind ?head name fmt =
  let group = String.starts_with ~prefix:"| " fmt in
  let fmt = if group then String.sub fmt 2 (String.length fmt - 2) else fmt in
  { name; head = Option.value head ~default:name; fmt; group; kind }

let label = col Label
let wall = col Wall
let cost = col Cost
let work = col Work

type cell = I of int | F of float | S of string | B of bool
type table = { cols : col list; rows : cell list list }

type t = {
  title : string;
  claim : string;
  tables : table list;
  notes : string list;  (** printed under the tables *)
  verdicts : (string * bool) list;  (** any false fails the run *)
}

let tolerance = 0.05

let render c cell =
  let fmt conv = Scanf.format_from_string c.fmt conv in
  match cell with
  | I i -> Printf.sprintf (fmt "%d") i
  | F f -> Printf.sprintf (fmt "%f") f
  | S s -> Printf.sprintf (fmt "%s") s
  | B b -> Printf.sprintf (fmt "%b") b

let print_table { cols; rows } =
  let cells = List.map (List.map2 render cols) rows in
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w r -> max w (String.length (List.nth r i)))
          (String.length c.head) cells)
      cols
  in
  let line r =
    List.map2
      (fun (c, w) s ->
        let fill = String.make (w - String.length s) ' ' in
        (if c.group then "| " else "")
        ^ if String.starts_with ~prefix:"%-" c.fmt then s ^ fill else fill ^ s)
      (List.combine cols widths) r
    |> String.concat " "
  in
  Format.printf "%s@." (line (List.map (fun c -> c.head) cols));
  List.iter (fun r -> Format.printf "%s@." (line r)) cells

let json_of = function
  | I i -> Json.Int i
  | F f -> Json.Float f
  | S s -> Json.String s
  | B b -> Json.Bool b

(* row key -> gated column -> (kind, cell) *)
type counters = (string * (string * (kind * cell)) list) list

(* A row's key is its label cells as printed, trimmed, joined by '/' *)
let counters tables : counters =
  List.concat_map
    (fun { cols; rows } ->
      List.map
        (fun row ->
          let cells = List.combine cols row in
          ( List.filter (fun (c, _) -> c.kind = Label) cells
            |> List.map (fun (c, v) -> String.trim (render c v))
            |> String.concat "/",
            List.filter_map
              (fun (c, v) ->
                match c.kind with
                | Cost | Work -> Some (c.name, (c.kind, v))
                | Label | Wall -> None)
              cells ))
        rows)
    tables

let num = function I i -> float_of_int i | F f -> f | S _ | B _ -> nan

(* One line per drift of [run] from [baseline] (row key, column,
   value): a cost more than [tolerance] above its baseline, a work
   counter more than [tolerance] below it, or a baselined counter the
   run no longer reports. A cost baselined at 0 fails on any growth. *)
let gate ~baseline (run : counters) =
  List.filter_map
    (fun (row, name, old) ->
      let drift now limit =
        Some
          (Printf.sprintf "%s.%s: %.10g -> %.10g (%+.1f%%, limit %s)" row name
             old now
             (100. *. (now -. old) /. Float.max 1. (Float.abs old))
             limit)
      in
      match Option.bind (List.assoc_opt row run) (List.assoc_opt name) with
      | None -> Some (Printf.sprintf "%s.%s: missing from the run" row name)
      | Some (Cost, v) when num v > old *. (1. +. tolerance) -> drift (num v) "+5%"
      | Some (Work, v) when num v < old *. (1. -. tolerance) -> drift (num v) "-5%"
      | Some _ -> None)
    baseline

(* The (row key, column, value) triples under "counters" in a baseline
   file. A scan, not a JSON parser: it reads the nesting of objects,
   string keys and numeric values the baselines are made of. *)
let baseline_of s =
  let n = String.length s in
  let rec scan i path key acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '{' -> scan (i + 1) (key :: path) "" acc
      | '}' -> scan (i + 1) (List.tl path) "" acc
      | '"' ->
          let j = String.index_from s (i + 1) '"' in
          scan (j + 1) path (String.sub s (i + 1) (j - i - 1)) acc
      | ':' | ',' | ' ' | '\t' | '\r' | '\n' -> scan (i + 1) path key acc
      | _ ->
          let j = ref i in
          while !j < n && not (String.contains ",} \t\r\n" s.[!j]) do incr j done;
          let v = float_of_string (String.sub s i (!j - i)) in
          scan !j path key
            (match path with [ row; "counters"; "" ] -> (row, key, v) :: acc | _ -> acc)
  in
  scan 0 [] "" []

(* Every artifact lands in ARIESRH_BENCH_DIR (default _bench/, created
   on first use) — never the repo root. *)
let bench_dir =
  lazy
    (let dir =
       match Sys.getenv_opt "ARIESRH_BENCH_DIR" with
       | Some d when d <> "" -> d
       | _ -> "_bench"
     in
     Ariesrh_storage.Backend.mkdir_p dir;
     dir)

(* Run one experiment: print it, write its artifact, gate it. The
   metrics snapshot merges every database the experiment created
   (counters and histograms sum). Retaining every registry would pin
   each db's log and pool for the whole experiment, distorting GC under
   bechamel's db-per-run allocation, so only the most recent database
   is pinned, and folded in when the next appears — experiments drive
   their databases sequentially. *)
let run name (f : unit -> t) =
  let snaps = ref [] and live = ref None and dbs = ref 0 in
  let roll () =
    Option.iter (fun db -> snaps := Metrics.snapshot (Db.metrics db) :: !snaps) !live;
    live := None
  in
  Db.set_create_hook (Some (fun db -> roll (); live := Some db; incr dbs));
  let t0 = Unix.gettimeofday () in
  let r = Fun.protect ~finally:(fun () -> Db.set_create_hook None) f in
  let ms = 1000. *. (Unix.gettimeofday () -. t0) in
  roll ();
  Format.printf "@.=== %s ===@.%s@.@." r.title r.claim;
  List.iteri (fun i t -> if i > 0 then Format.printf "@."; print_table t) r.tables;
  if r.notes <> [] || r.verdicts <> [] then Format.printf "@.";
  List.iter (Format.printf "%s@.") r.notes;
  List.iter
    (fun (v, ok) -> Format.printf "%s: %s@." v (if ok then "PASS" else "FAIL"))
    r.verdicts;
  let counters = counters r.tables in
  let obj f l = Json.Obj (List.map f l) in
  let path =
    Filename.concat (Lazy.force bench_dir) (Printf.sprintf "BENCH_%s.json" name)
  in
  Json.to_file path
    (Json.Obj
       [
         ("experiment", Json.String name);
         ("wall_ms", Json.Float ms);
         ("databases", Json.Int !dbs);
         ( "rows",
           Json.List
             (List.concat_map
                (fun t ->
                  List.map (List.map2 (fun c v -> (c.name, json_of v)) t.cols) t.rows)
                r.tables
             |> List.map (fun kvs -> Json.Obj kvs)) );
         ( "counters",
           obj (fun (k, cs) -> (k, obj (fun (c, (_, v)) -> (c, json_of v)) cs)) counters );
         ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
         ("verdicts", obj (fun (v, ok) -> (v, Json.Bool ok)) r.verdicts);
         ("metrics", Metrics.to_json (Metrics.merge (List.rev !snaps)));
       ]);
  Format.printf "@.[%s: %.0f ms; metrics -> %s]@." name ms path;
  let base = Filename.concat "bench/baselines" (name ^ ".json") in
  let drift =
    if not (Sys.file_exists base) then []
    else
      let text = In_channel.with_open_bin base In_channel.input_all in
      let drift = gate ~baseline:(baseline_of text) counters in
      if drift = [] then Format.printf "[%s: counters within 5%% of %s]@." name base
      else begin
        Format.eprintf "%s: counter gate FAILED vs %s:@." name base;
        List.iter (Format.eprintf "  %s@.") drift
      end;
      drift
  in
  let failed = List.filter (fun (_, ok) -> not ok) r.verdicts in
  List.iter (fun (v, _) -> Format.eprintf "%s: verdict FAILED: %s@." name v) failed;
  failed = [] && drift = []
