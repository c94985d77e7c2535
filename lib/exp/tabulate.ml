(* Plain-text bar charts for the experiment reports; tables are
   [Obs.render_table]. *)

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

(* Horizontal ASCII bar chart: one bar per (label, value), scaled to
   [width] characters at the maximum value. *)
let bar_chart ?(width = 48) ?(unit = "x") items =
  match items with
  | [] -> ""
  | _ ->
      let vmax =
        List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 items
      in
      let vmax = if vmax <= 0.0 then 1.0 else vmax in
      let lw =
        List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 items
      in
      let buf = Buffer.create 512 in
      List.iter
        (fun (label, v) ->
          let n =
            int_of_float (Float.round (v /. vmax *. float_of_int width))
          in
          Buffer.add_string buf
            (Printf.sprintf "%s  %s %.1f%s\n" (pad lw label)
               (String.make (max n 1) '#') v unit))
        items;
      Buffer.contents buf
