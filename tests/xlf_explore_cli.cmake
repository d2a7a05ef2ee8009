# CLI contract of tools/xlf_explore, run as a CTest script:
#   cmake -DXLF_EXPLORE=<binary> -DSPEC=<example spec> -P xlf_explore_cli.cmake
#
# Checks the teaching-error satellite (unknown flags exit non-zero and
# point at --help instead of being silently ignored), the policy
# vocabulary (--list-policies, unknown policy names), numeric flag
# values (whole token, in range, or an error naming the flag), wear
# ages outside the models' domain, spec error handling, and that a
# shipped example spec runs clean.

if(NOT DEFINED XLF_EXPLORE OR NOT DEFINED SPEC)
  message(FATAL_ERROR "usage: cmake -DXLF_EXPLORE=... -DSPEC=... -P xlf_explore_cli.cmake")
endif()

# --- unknown flag: non-zero exit, names the flag, suggests --help ----
execute_process(COMMAND ${XLF_EXPLORE} --no-such-flag
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "unknown flag '--no-such-flag'")
  message(FATAL_ERROR "unknown-flag message must name the flag, got: ${err}")
endif()
if(NOT err MATCHES "--help")
  message(FATAL_ERROR "unknown-flag message must suggest --help, got: ${err}")
endif()

# --- --list-policies: one "kind: names" line per kind, exit 0 --------
execute_process(COMMAND ${XLF_EXPLORE} --list-policies
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-policies must exit 0 (got ${rc}): ${err}")
endif()
set(policy_lines
    "tuning: feedback model_based static"
    "gc: cost-benefit greedy"
    "wear: dynamic none static"
    "refresh: none retention_aware"
    "arbitration: round-robin weighted")
string(REPLACE ";" "\n" expected "${policy_lines}")
if(NOT out STREQUAL "${expected}\n")
  message(FATAL_ERROR "--list-policies must print exactly\n${expected}\n"
                      "got:\n${out}")
endif()

# --- an unknown policy name: exit 2, listing the kind's names --------
# Each case is "<flag>|<name>|<the kind's sorted names>"; the kind is
# the flag's suffix (gc, wear, tuning, refresh, arbitration).
foreach(case
    "gc|lifo|cost-benefit greedy"
    "wear|Static|dynamic none static"
    "tuning|adaptive|feedback model_based static"
    "refresh|always|none retention_aware"
    "arbitration|lottery|round-robin weighted")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 kind)
  list(GET parts 1 name)
  list(GET parts 2 names)
  execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-requests 8
                          --ftl-${kind} ${name}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  set(expected "xlf_explore: unknown ${kind} policy '${name}'; available: ${names}\n")
  if(NOT rc EQUAL 2 OR NOT err STREQUAL expected)
    message(FATAL_ERROR "--ftl-${kind} ${name} must exit 2 with\n${expected}"
                        "got ${rc}:\n${err}")
  endif()
endforeach()

# --- --version/--build-info: provenance lines, exit 0 ----------------
foreach(flag --version --build-info)
  execute_process(COMMAND ${XLF_EXPLORE} ${flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${flag} must exit 0 (got ${rc}): ${err}")
  endif()
  foreach(field "xlf_explore " "compiler:" "build type:" "sanitizers:"
                "ispp kernel: (avx2|scalar)\n")
    if(NOT out MATCHES "${field}")
      message(FATAL_ERROR "${flag} output missing '${field}': ${out}")
    endif()
  endforeach()
endforeach()

# --- --version is exclusive with --spec ------------------------------
execute_process(COMMAND ${XLF_EXPLORE} --version --spec ${SPEC}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--version --spec must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "exclusive")
  message(FATAL_ERROR "--version/--spec conflict message unclear, got: ${err}")
endif()

# --- an unknown flag with a valid one around it still fails ----------
execute_process(COMMAND ${XLF_EXPLORE} --threads 1 --ftl-swep
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "misspelled flag must exit non-zero (got 0)")
endif()

# --- the retired sharded data plane's flag is unknown ----------------
execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-shard-dies
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--ftl-shard-dies must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "unknown flag '--ftl-shard-dies'")
  message(FATAL_ERROR "--ftl-shard-dies must be an unknown flag, got: ${err}")
endif()

# --- queue ids are 16-bit: more than 65,536 queues is an error -------
execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-requests 8
                        --ftl-queues 1,65537
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
set(expected "xlf_explore: --ftl-queues must be an integer in [1, 65536], got '65537'\n")
if(NOT rc EQUAL 2 OR NOT err STREQUAL expected)
  message(FATAL_ERROR "--ftl-queues 1,65537 must exit 2 with\n${expected}"
                      "got ${rc}:\n${err}")
endif()

# --- a spec's 32-bit keys: past 2^32 - 1 an error, never a wrap ------
set(wide_spec ${CMAKE_CURRENT_BINARY_DIR}/xlf_explore_cli_wide.json)
file(WRITE ${wide_spec} [=[{"mode": "ftl-sweep",
  "geometry": {"blocks": 4294967304}}]=])
execute_process(COMMAND ${XLF_EXPLORE} --spec ${wide_spec}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
file(REMOVE ${wide_spec})
set(expected "xlf_explore: experiment spec: 'geometry.blocks' must be an integer in [1, 4294967295], got 4294967304\n")
if(NOT rc EQUAL 2 OR NOT err STREQUAL expected)
  message(FATAL_ERROR "a spec with 4294967304 blocks must exit 2 with\n"
                      "${expected}got ${rc}:\n${err}")
endif()

# --- a mistyped operating point: exit 2 listing the points ----------
# (never a run at Baseline's operating point)
execute_process(COMMAND ${XLF_EXPLORE} --point max-reed --ages 1:1e3:2
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
set(expected "xlf_explore: unknown operating point 'max-reed'; available: baseline min-uber max-read\n")
if(NOT rc EQUAL 2 OR NOT err STREQUAL expected)
  message(FATAL_ERROR "--point max-reed must exit 2 with\n${expected}"
                      "got ${rc}:\n${err}")
endif()

# --- an all-hot LPA space runs (cold writes fall back to hot) --------
execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-requests 64
                        --ftl-hot-fraction 1.0
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--ftl-hot-fraction 1.0 must exit 0 (got ${rc}): ${err}")
endif()

# --- numeric flags: whole token, in range, or a named-flag error -----
# Each case is "<flag to name>|<argument list>"; none may reach an
# internal precondition.
foreach(case
    "--ftl-blocks|--ftl-sweep;--ftl-blocks;-1;--ftl-requests;8"
    "--ftl-requests|--ftl-sweep;--ftl-requests;-1"
    "--mc-replicas|--mc-replicas;-1"
    "--threads|--threads;1e3"
    "--ftl-qd|--ftl-sweep;--ftl-qd;4x"
    "--ftl-fail-blocks|--ftl-sweep;--ftl-fail-blocks;1,x"
    "--ftl-requests|--ftl-sweep;--ftl-requests;0"
    "--ftl-requests|--ftl-sweep;--ftl-requests;abc"
    "--ftl-pages|--ftl-sweep;--ftl-pages;0"
    "--ftl-read-fraction|--ftl-sweep;--ftl-read-fraction;1.0"
    "--ftl-hot-fraction|--ftl-sweep;--ftl-hot-fraction;0"
    "--ftl-hot-writes|--ftl-sweep;--ftl-hot-writes;1.5"
    "--ftl-initial-wear|--ftl-sweep;--ftl-initial-wear;-5"
    "--mc-age|--mc-age;-7;--mc-replicas;1;--mc-requests;2;--workloads;mixed")
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts flag)
  string(REPLACE ";" " " shown "${parts}")
  execute_process(COMMAND ${XLF_EXPLORE} ${parts}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "'${shown}' must exit non-zero (got 0)")
  endif()
  string(FIND "${err}" "${flag} must be" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "'${shown}' must name ${flag}, got: ${err}")
  endif()
  if(err MATCHES "precondition failed")
    message(FATAL_ERROR "'${shown}' reached a precondition: ${err}")
  endif()
endforeach()

# --- ages outside the models' domain: a named error, not an internal -
# check. The aging law's RBER grows without bound: it reaches 1 near
# 9.2e7 P/E cycles (the UBER arithmetic's end) and outgrows what the
# bit-true array can place near 3.2e7. Each case is "<text to
# find>|<argument list>".
set(age_spec ${CMAKE_CURRENT_BINARY_DIR}/xlf_explore_cli_mc_age.json)
file(WRITE ${age_spec} [=[{"mode": "space", "monte_carlo": {"replicas": 1,
  "requests": 2, "age": 1e8, "workloads": ["mixed"]}}]=])
foreach(case
    "--mc-age|--mc-age;3.5e7;--mc-replicas;1;--mc-requests;2;--workloads;mixed"
    "--mc-age (unset|--ages;1:5e7:3;--mc-replicas;1;--mc-requests;2;--workloads;mixed"
    "--ftl-initial-wear|--ftl-sweep;--ftl-initial-wear;5e7;--ftl-requests;8"
    "--ftl-initial-wear|--ftl-sweep;--ftl-data-plane;meta;--ftl-initial-wear;1e8;--ftl-requests;50;--ftl-topologies;1x1;--ftl-qd;1;--ftl-gc;greedy"
    "--ages HI|--ages;1:1e8:3"
    "'monte_carlo.age'|--spec;${age_spec}")
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts named)
  string(REPLACE ";" " " shown "${parts}")
  execute_process(COMMAND ${XLF_EXPLORE} ${parts}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${shown}' must exit 2 (got ${rc})")
  endif()
  string(FIND "${err}" "${named}" found)
  if(found EQUAL -1 OR NOT err MATCHES "must be below")
    message(FATAL_ERROR "'${shown}' must name ${named} and its limit, got: ${err}")
  endif()
  if(err MATCHES "precondition failed" OR err MATCHES "invariant failed")
    message(FATAL_ERROR "'${shown}' reached an internal check: ${err}")
  endif()
endforeach()
file(REMOVE ${age_spec})
# A bit-true sweep that starts inside the array's limit but crosses it
# through pe_cycles_per_erase: the erase that would reach the limit
# fails with a named error that gives the wear and the limit.
execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-data-plane bit-true
                        --ftl-initial-wear 3.2e7 --ftl-requests 200
                        --ftl-topologies 1x1 --ftl-qd 1
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "a bit-true sweep crossing the array's limit must exit "
                      "non-zero (got 0)")
endif()
if(NOT err MATCHES "P/E cycles, at or past the array's limit of 3\\.21")
  message(FATAL_ERROR "crossing the array's limit must name the wear and the "
                      "limit, got: ${err}")
endif()
if(err MATCHES "precondition failed" OR err MATCHES "invariant failed")
  message(FATAL_ERROR "crossing the array's limit reached an internal check: "
                      "${err}")
endif()
# The metadata-only plane has no cell array, but the same holds at the
# aging law's limit (RBER 1): a meta sweep that starts inside it and
# crosses it through pe_cycles_per_erase fails naming the wear and the
# limit, instead of pinning t at its maximum past the law's domain.
execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-data-plane meta
                        --ftl-initial-wear 9.1e7 --ftl-requests 400
                        --ftl-topologies 1x1 --ftl-qd 1 --ftl-gc greedy
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "a meta sweep crossing the aging law's limit must "
                      "exit 2 (got ${rc}): ${err}")
endif()
if(NOT err MATCHES "P/E cycles, at or past the aging law's limit of 9\\.17")
  message(FATAL_ERROR "crossing the aging law's limit must name the wear and "
                      "the limit, got: ${err}")
endif()
if(err MATCHES "precondition failed" OR err MATCHES "invariant failed")
  message(FATAL_ERROR "crossing the aging law's limit reached an internal "
                      "check: ${err}")
endif()
# When several combos fail, the error reported is the lowest combo's
# at every thread count. Both combos here cross the limit, at different
# blocks, and the second (1x1) fails sooner than the first (2x1), so
# in parallel the higher combo's error comes first.
set(failing_sweep --ftl-sweep --ftl-data-plane bit-true
    --ftl-initial-wear 3.2e7 --ftl-requests 200 --ftl-topologies 2x1,1x1
    --ftl-qd 1 --ftl-gc greedy)
foreach(threads 1 4)
  execute_process(COMMAND ${XLF_EXPLORE} ${failing_sweep} --threads ${threads}
                  RESULT_VARIABLE rc_${threads} ERROR_VARIABLE err_${threads}
                  OUTPUT_QUIET)
  if(NOT rc_${threads} EQUAL 2)
    message(FATAL_ERROR "the two failing combos must exit 2 at --threads "
                        "${threads} (got ${rc_${threads}}): ${err_${threads}}")
  endif()
endforeach()
if(NOT err_1 STREQUAL err_4)
  message(FATAL_ERROR "a failing sweep's error must not depend on --threads; "
                      "1 thread:\n${err_1}4 threads:\n${err_4}")
endif()
# The edges inside the domain still run: the meta plane has no cell
# array to outgrow, only the aging law's limit.
foreach(args
    "--ages;1:9e7:3"
    "--ages;1:1e6:2;--mc-age;3e7;--mc-replicas;1;--mc-requests;2;--workloads;mixed"
    "--ftl-sweep;--ftl-data-plane;meta;--ftl-initial-wear;9e7;--ftl-requests;16")
  execute_process(COMMAND ${XLF_EXPLORE} ${args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${args}")
    message(FATAL_ERROR "'${shown}' must exit 0 (got ${rc}): ${err}")
  endif()
endforeach()

# --- --seed keeps strtoull's literal bases: 17 = 0x11 = 021 ----------
foreach(seed 17 0x11 021)
  execute_process(COMMAND ${XLF_EXPLORE} --ages 1:1e6:2 --mc-replicas 1
                          --mc-requests 4 --workloads mixed --seed ${seed}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE seed_out_${seed}
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--seed ${seed} must exit 0 (got ${rc}): ${err}")
  endif()
endforeach()
if(NOT seed_out_17 STREQUAL seed_out_0x11 OR
   NOT seed_out_17 STREQUAL seed_out_021)
  message(FATAL_ERROR "--seed 17, 0x11 and 021 must give the same report")
endif()

# --- spec values outside their key's range: exit 2 naming the key ----
# None may reach a later check: for logical_fraction that is the
# sweep's viability bound, which converts the logical share to an
# integer and names fail_blocks.
set(range_spec ${CMAKE_CURRENT_BINARY_DIR}/xlf_explore_cli_range.json)
foreach(case
    [=[ftl.logical_fraction|{"mode": "ftl-sweep", "ftl": {"logical_fraction": -0.5},
      "workload": {"requests": 50}, "sweep": {"topologies": ["1x1"]}}]=]
    [=[initial_pe_cycles|{"mode": "ftl-sweep", "initial_pe_cycles": -1}]=]
    [=[ftl.scrub_retention_hours|{"mode": "ftl-sweep",
      "ftl": {"scrub_retention_hours": -10}}]=]
    [=[monte_carlo.age|{"mode": "space", "monte_carlo": {"replicas": 1, "age": -7}}]=])
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} key)
  math(EXPR bar "${bar} + 1")
  string(SUBSTRING "${case}" ${bar} -1 text)
  file(WRITE ${range_spec} "${text}")
  execute_process(COMMAND ${XLF_EXPLORE} --spec ${range_spec}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "spec ${text} must exit 2 (got ${rc}): ${err}")
  endif()
  string(FIND "${err}" "'${key}' must" named)
  if(named EQUAL -1 OR err MATCHES "precondition failed|fail_blocks")
    message(FATAL_ERROR "spec ${text} must name '${key}', got: ${err}")
  endif()
endforeach()
file(REMOVE ${range_spec})

# --- an FTL shape the FTL cannot hold: exit 2 naming the flag or key -
# A topology past the 32-bit page space (65536x65536 once wrapped to 0
# dies and divided by it, 65536x65537 to 65,536 dies it began to
# build), and a GC floor no die can hold (4294967295 + 2 once wrapped
# to 1 and ran; 7 + 2 on the 8-block die named fail_blocks).
foreach(topology 65536x65536 65536x65537)
  execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-topologies
                          ${topology} --ftl-requests 8
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "--ftl-topologies ${topology} must exit 2 (got ${rc}): ${err}")
  endif()
  if(NOT err MATCHES "--ftl-topologies entry ${topology} makes [0-9]+ dies .* past the FTL's 32-bit page space")
    message(FATAL_ERROR "--ftl-topologies ${topology} must name the flag "
                        "and the page space, got: ${err}")
  endif()
endforeach()
set(slack_spec ${CMAKE_CURRENT_BINARY_DIR}/xlf_explore_cli_slack.json)
foreach(free 4294967295 7)
  file(WRITE ${slack_spec} "{\"mode\": \"ftl-sweep\", \"ftl\": {\"gc_free_blocks\": ${free}}, \"workload\": {\"requests\": 8}}")
  execute_process(COMMAND ${XLF_EXPLORE} --spec ${slack_spec}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "gc_free_blocks ${free} must exit 2 (got ${rc}): ${err}")
  endif()
  if(NOT err MATCHES "'ftl.gc_free_blocks' must be below 'geometry.blocks' - 2"
     OR err MATCHES "fail_blocks")
    message(FATAL_ERROR "gc_free_blocks ${free} must name its key, got: ${err}")
  endif()
endforeach()
file(REMOVE ${slack_spec})

# --- missing spec file: non-zero with a clear message ----------------
execute_process(COMMAND ${XLF_EXPLORE} --spec /nonexistent/spec.json
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "missing spec file must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "cannot open")
  message(FATAL_ERROR "missing-spec message unclear, got: ${err}")
endif()

# --- a 100,000-deep spec: a named error, not a stack overflow --------
set(deep_spec ${CMAKE_CURRENT_BINARY_DIR}/xlf_explore_cli_deep.json)
string(REPEAT "[" 100000 open)
string(REPEAT "]" 100000 close)
file(WRITE ${deep_spec} "${open}${close}")
execute_process(COMMAND ${XLF_EXPLORE} --spec ${deep_spec}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
file(REMOVE ${deep_spec})
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "a 100000-deep spec must exit 2 (got ${rc}): ${err}")
endif()
if(NOT err MATCHES "at 1:65: nesting depth 65 exceeds the limit of 64")
  message(FATAL_ERROR "a too-deep spec must name the depth and position, "
                      "got: ${err}")
endif()

# --- --spec conflicts with sweep-shaping flags -----------------------
execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --ftl-sweep
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--spec + shaping flags must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "exclusive")
  message(FATAL_ERROR "--spec conflict message unclear, got: ${err}")
endif()

# --- a shipped example spec runs and is thread-count deterministic ---
execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --threads 1
                RESULT_VARIABLE rc1 OUTPUT_VARIABLE run1 ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "--spec ${SPEC} failed (${rc1}): ${err1}")
endif()
execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --threads 4
                RESULT_VARIABLE rc4 OUTPUT_VARIABLE run4 ERROR_VARIABLE err4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "--spec ${SPEC} --threads 4 failed (${rc4}): ${err4}")
endif()
if(NOT run1 STREQUAL run4)
  message(FATAL_ERROR "--spec output differs between --threads 1 and 4")
endif()
if(run1 STREQUAL "")
  message(FATAL_ERROR "--spec produced no output")
endif()
