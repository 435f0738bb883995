(** Table and chart rendering for the experiment harness: aligned ASCII
    tables (the paper's tables) and simple line charts (its figures), plus
    the geometric-mean helper the paper uses for its summary bars; also the
    JSON codec and the one whole-file reader behind every saved
    artifact. *)

val gmean : float list -> float
(** Geometric mean; ignores non-positive values (which would otherwise
    poison the product — the paper's means are over positive ratios). *)

val read_file : string -> (string, string) result
(** The whole file; an error (the file is missing or unreadable) begins
    with the path. *)

module Table : sig
  type align = Left | Right

  type t

  val create : title:string -> (string * align) list -> t
  val add_row : t -> string list -> unit
  val add_separator : t -> unit
  val render : t -> string
  (** Columns are padded by UTF-8 code points, so a header such as
      ["γ at θ=1.0"] lines up with the cells below it. *)

  val cell_float : ?decimals:int -> float -> string
  val cell_percent : ?decimals:int -> float -> string
  (** [cell_percent 0.137 = "13.7%"]. *)
end

module Json : sig
  (** A minimal JSON emitter and parser for machine-readable stats — no
      dependencies, enough for [--stats-json] / [benchdiff] style
      round-trips. *)

  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** Non-finite values are emitted as [null]. *)
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact (single-line) rendering with full string escaping. *)

  val of_string : string -> (t, string) result
  (** Parse a complete JSON document.  Integral number literals that fit
      an OCaml [int] parse as [Int], everything else as [Float], so
      [of_string (to_string d)] reproduces [d] for any document whose
      floats are finite. *)

  val member : string -> t -> t option
  (** Field lookup; [None] on a missing field or a non-object. *)

  val to_float_opt : t -> float option
  (** Numeric coercion: [Int] and [Float] only. *)

  val to_int_opt : t -> int option
  (** [Int] only. *)

  val to_string_opt : t -> string option

  val load_file : string -> (t, string) result
  (** {!read_file} and parse: the one way a saved JSON artifact is
      opened.  Errors (unreadable file, invalid JSON) begin with the
      path. *)
end

module Stats : sig
  (** Repeated-sample statistics for the benchmark regression gate:
      sample mean and deviation, Student-t confidence intervals and
      Welch's unequal-variance two-sample test. *)

  val mean : float list -> float
  (** 0 on the empty list. *)

  val stddev : float list -> float
  (** Sample (n-1) standard deviation; 0 for fewer than two samples. *)

  val t_crit95 : int -> float
  (** Two-sided 95% Student t critical value for the given degrees of
      freedom (normal approximation beyond df = 30). *)

  val ci95 : float list -> float
  (** Half-width of the 95% confidence interval of the mean; 0 for fewer
      than two samples. *)

  val significant : float list -> float list -> bool
  (** Two-sided Welch test at 95%.  With fewer than two samples on either
      side there is no variance estimate and the test conservatively
      reports [true] (every difference counts). *)
end

module Chart : sig
  (** A small ASCII line chart: one column per x value, series plotted with
      distinct marks, y axis auto-scaled. *)

  type t

  val create :
    title:string -> x_labels:string list -> height:int -> unit -> t

  val add_series : t -> name:string -> float list -> unit
  (** One value per x label ([nan] for missing points). *)

  val render : t -> string
end
