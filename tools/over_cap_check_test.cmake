# A check whose assignment graph is over the dense store's 2^24-state cap
# runs on the sparse tuple store, which builds no assignment graph, instead
# of being refused. Run as a CTest script with -DGQD=<gqd binary>
# -DWORK=<scratch dir>.
#
# The graph is a 28-node path with 27 distinct data values (the last two
# nodes share one), so at k = 4 the assignment graph has 28 · 28^4 ≈ 17.2M
# states. One dense macro tuple is 28 · ⌈17.2M/64⌉ words ≈ 60.2 MB, under
# the 64 MB dense-tuple cap, but the states are past the dense store's cap,
# so the automatic store choice is sparse. S = {(n0, n1)} is not definable
# and the search stops at the default 200 000-tuple cap: exit 4 with and
# without a byte budget. The dense store's own refusals on this graph
# (ResourceExhausted under a byte budget, OutOfRange without) are pinned by
# DefinabilitySetups.DenseStorePastItsStateCapIsRefused.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(graph "")
foreach(i RANGE 27)
  set(value ${i})
  if(i EQUAL 27)
    set(value 26)
  endif()
  string(APPEND graph "node n${i} v${value}\n")
endforeach()
foreach(i RANGE 26)
  math(EXPR next "${i} + 1")
  string(APPEND graph "edge n${i} a n${next}\n")
endforeach()
file(WRITE ${WORK}/path.graph "${graph}")
file(WRITE ${WORK}/path.pairs "pair n0 n1\n")

function(expect_exit code pattern)
  execute_process(COMMAND ${GQD} check ${WORK}/path.graph ${WORK}/path.pairs
                          --language rem --k 4 --json ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "expected exit ${code}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "output lacks '${pattern}': ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

set(searched "\"budget exhausted\",\"k\":4,\"tuples_explored\":200001")
expect_exit(4 "${searched}" --max-bytes 100000000)
expect_exit(4 "${searched}")
