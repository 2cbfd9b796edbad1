# A budgeted check whose assignment graph is over the dense store's
# 2^24-state cap exits 4 (a budget outcome naming the estimated adjacency
# bytes); without a budget it stays a hard error (exit 1). Run as a CTest
# script with -DGQD=<gqd binary> -DWORK=<scratch dir>.
#
# The graph is a 28-node path with 27 distinct data values (the last two
# nodes share one), so at k = 4 the assignment graph has 28 · 28^4 ≈ 17.2M
# states. One dense macro tuple is then 28 · ⌈17.2M/64⌉ words ≈ 60.2 MB,
# under the 64 MB dense-tuple cap, so the dense store (the one with the
# 2^24-state cap) is chosen; the sparse store would take the graph.

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
                          --language rem --k 4 ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "expected exit ${code}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "output lacks '${pattern}': ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

expect_exit(4 "bytes of adjacency" --max-bytes 100000000)
expect_exit(1 "assignment graph too large")
