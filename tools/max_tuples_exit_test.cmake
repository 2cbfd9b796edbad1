# A --max-tuples trip is a budget outcome: `gqd check` prints the
# budget-exhausted verdict and exits 4 for every checker the cap reaches,
# whether or not the checker reports partial progress.
# Run as a CTest script with -DGQD=<gqd binary> -DDATA=<examples/data>.

set(G ${DATA}/social_network.graph)
set(S ${DATA}/movie_link.pairs)

function(expect_trip)
  execute_process(COMMAND ${GQD} check ${G} ${S} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 4 OR NOT "${out}" MATCHES "budget exhausted")
    message(FATAL_ERROR "expected a budget trip with exit 4, got ${rc}: "
                        "${ARGN}\n${out}\n${err}")
  endif()
endfunction()

expect_trip(--language rem --k 2 --max-tuples 3)
expect_trip(--language rpq --max-tuples 1)
expect_trip(--language ree --max-tuples 2)
expect_trip(--language all --max-tuples 1 --json)
