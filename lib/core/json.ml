(* The one JSON layer: value type, printer and parser.  See json.mli for
   the escaping and number rules the printer follows and the parser
   inverts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---------------------------------------------------------------- *)
(* Printer                                                           *)
(* ---------------------------------------------------------------- *)

let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 1

let add_escaped b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let to_string v =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let seq f l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f x)
      l
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> str s
    | Arr l ->
        Buffer.add_char b '[';
        seq go l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        seq
          (fun (k, v) ->
            str k;
            Buffer.add_char b ':';
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Parser                                                            *)
(* ---------------------------------------------------------------- *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Bad (Printf.sprintf "%s at offset %d" m !pos)))
      fmt
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail "expected %c" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  (* the four hex digits of a \u escape, [pos] on the first *)
  let hex4 () =
    let digits = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if digits = "" || not (String.for_all hex digits) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              Buffer.add_utf_8_uchar buf
                (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep)
          | c ->
              Buffer.add_char buf
                (match c with
                | Some (('"' | '\\' | '/') as c) -> c
                | Some 'n' -> '\n'
                | Some 't' -> '\t'
                | Some 'r' -> '\r'
                | Some 'b' -> '\b'
                | Some 'f' -> '\012'
                | _ -> fail "bad escape");
              advance ());
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c -> num_char c | None -> false do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  (* the comma-separated elements of an array or object, after its
     opening bracket, up to and including [close] *)
  let elements close elem =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec more acc =
        let acc = elem () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            more acc
        | Some c when c = close ->
            advance ();
            List.rev acc
        | _ -> fail "expected , or %c" close
      in
      more []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        Obj
          (elements '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' ->
        advance ();
        Arr (elements ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Bad m -> Error m

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)
(* ---------------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let arr = function Arr l -> Some l | _ -> None
let num = function Num f -> Some f | _ -> None
let str = function Str s -> Some s | _ -> None

let num_at path v =
  let rec go v = function
    | [] -> num v
    | k :: rest -> Option.bind (member k v) (fun v -> go v rest)
  in
  go v path
