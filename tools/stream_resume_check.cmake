# Checks that a `nidc_cli stream` run stopped and resumed ends in the same
# state, byte for byte, as one uninterrupted run: the on-line clusterer's
# output must not depend on where its stream is cut. Run as a ctest:
#
#   cmake -DNIDC_CLI=path/to/nidc_cli -DWORK_DIR=scratch/dir \
#         -P tools/stream_resume_check.cmake
#
# On a scale-0.05 corpus it compares the state of days [0, 20) against
#   1. [0, 10) then [10, 20) through a --state file;
#   2. the same split through a --checkpoint-dir, with --state as the
#      final destination;
# and checks that a --state file that does not parse exits 1 and is left
# as it was. --from 0 puts the split on the one-day window grid.

foreach(var NIDC_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "define ${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs nidc_cli with ARGN in WORK_DIR and fails unless it exits `expected`.
function(run_cli expected)
  execute_process(COMMAND "${NIDC_CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    message(FATAL_ERROR
      "nidc_cli ${ARGN}: exit ${code}, expected ${expected}\n${out}${err}")
  endif()
endfunction()

# Fails unless files `a` and `b` in WORK_DIR hold the same bytes.
function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${WORK_DIR}/${a}" "${WORK_DIR}/${b}" RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

run_cli(0 generate --out corpus.tsv --scale 0.05)
set(stream stream --corpus corpus.tsv)

# The uninterrupted run.
run_cli(0 ${stream} --from 0 --to 20 --state whole.state)

# Stopped at day 10 and resumed from its state file.
run_cli(0 ${stream} --from 0 --to 10 --state split.state)
run_cli(0 ${stream} --to 20 --state split.state)
expect_same(split.state whole.state)

# The same split through the durable store.
run_cli(0 ${stream} --from 0 --to 10 --checkpoint-dir ckpt)
run_cli(0 ${stream} --to 20 --checkpoint-dir ckpt --state durable.state)
expect_same(durable.state whole.state)

# A state file that does not parse is refused and kept.
file(WRITE "${WORK_DIR}/garbage.state" "garbage\n")
file(WRITE "${WORK_DIR}/garbage.expected" "garbage\n")
run_cli(1 ${stream} --from 0 --to 20 --state garbage.state)
expect_same(garbage.state garbage.expected)
