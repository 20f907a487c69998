(* Minimal JSON reader: enough to read BENCHMARK.json and to check that the
   Chrome trace the benchmark wrote parses. Report.Json only emits. *)

type t = Report.Json.t

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false) then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Report.Json.Int i
    | None -> (
        match float_of_string_opt text with Some f -> Report.Json.Float f | None -> fail "bad number")
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Report.Json.Obj [])
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Report.Json.Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Report.Json.List [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Report.Json.List (List.rev (v :: acc)))
          in
          items []
    | '"' -> Report.Json.Str (string ())
    | 't' -> literal "true" (Report.Json.Bool true)
    | 'f' -> literal "false" (Report.Json.Bool false)
    | 'n' -> literal "null" Report.Json.Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let read_file path = In_channel.with_open_bin path In_channel.input_all |> parse

let member key = function
  | Report.Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Report.Json.List l -> l | _ -> []

let to_string = function Report.Json.Str s -> Some s | _ -> None
