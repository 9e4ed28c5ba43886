type code =
  | Insufficient_memory
  | Memory_wait_timeout
  | Low_memory_condition
  | Shard_unavailable
  | Retry_budget_exhausted

type severity = Severe | Informational
type t = { code : code; detail : string }

let make ?(detail = "") code = { code; detail }

let all_codes =
  [
    Insufficient_memory;
    Memory_wait_timeout;
    Low_memory_condition;
    Shard_unavailable;
    Retry_budget_exhausted;
  ]

let code_name = function
  | Insufficient_memory -> "insufficient-memory"
  | Memory_wait_timeout -> "memory-wait-timeout"
  | Low_memory_condition -> "low-memory-condition"
  | Shard_unavailable -> "shard-unavailable"
  | Retry_budget_exhausted -> "retry-budget-exhausted"

let sql_code = function
  | Insufficient_memory -> Some 701
  | Memory_wait_timeout -> Some 8645
  | Low_memory_condition -> Some 8651
  | Shard_unavailable | Retry_budget_exhausted -> None

let severity = function
  | Insufficient_memory | Memory_wait_timeout | Low_memory_condition -> Severe
  | Shard_unavailable | Retry_budget_exhausted -> Informational

let retryable = function
  | Insufficient_memory | Memory_wait_timeout | Low_memory_condition
  | Shard_unavailable -> true
  | Retry_budget_exhausted -> false

let severity_name = function
  | Severe -> "severe"
  | Informational -> "info"

let to_string t =
  let sql =
    match sql_code t.code with
    | Some n -> string_of_int n ^ " "
    | None -> ""
  in
  let detail = if t.detail = "" then "" else Printf.sprintf " (%s)" t.detail in
  sql ^ code_name t.code ^ detail
