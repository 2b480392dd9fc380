(** Experiment drivers: one function per table/figure of the paper.

    Each returns plain data; {!Report} renders it and the
    [rpki_maxlen] CLI prints it. *)

type row = {
  label : string;
  pdus : int;
  secure : bool;
      (** Safe against forged-origin subprefix hijacks (Table 1's
          check/cross column; Figure 3's solid/dashed distinction). *)
  paper_pdus : int option;
      (** The value the paper reports for this row on the 2017-06-01
          dataset, when run at paper scale. *)
}

val table1 : ?mode:Compress.mode -> Dataset.Snapshot.t -> row list
(** The seven Table 1 scenarios, in the paper's order:
    status quo; status quo compressed; minimal no-maxLength; minimal
    compressed; full-deployment minimal; full-deployment compressed;
    max-permissive lower bound. [?mode] (default {!Compress.Strict})
    is the merge rule of every compressed row. *)

type series = { name : string; secure : bool; points : (string * int) list }

val figure3a : ?mode:Compress.mode -> Dataset.Timeline.week list -> series list
(** Today's-deployment PDU counts per week: status quo, status quo
    compressed, minimal no-maxLength, minimal compressed. [?mode] as
    in {!table1}. *)

val figure3b : ?mode:Compress.mode -> Dataset.Timeline.week list -> series list
(** Full-deployment PDU counts per week: minimal no-maxLength, minimal
    compressed, lower bound. [?mode] as in {!table1}. *)
