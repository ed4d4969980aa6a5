# Runs BIN with the env knob KNOB set to the malformed VALUE and requires a
# clean refusal: exit code 1, and stderr naming the binary and the knob.
#
#   cmake -DBIN=<path> -DKNOB=<name> -DVALUE=<text> -P expect_knob_error.cmake
get_filename_component(name "${BIN}" NAME)
# Set in this process's environment, not through `cmake -E env`, which
# reports a child killed by a signal as plain exit code 1.
set(ENV{${KNOB}} "${VALUE}")
execute_process(
  COMMAND "${BIN}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${name} with ${KNOB}=${VALUE}: exit '${rc}', want 1\n${err}")
endif()
if(NOT err MATCHES "${name}: ${KNOB}")
  message(FATAL_ERROR "${name} with ${KNOB}=${VALUE}: stderr lacks '${name}: ${KNOB}'\n${err}")
endif()
