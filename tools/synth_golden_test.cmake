# `gqd synth` output is pinned byte for byte: each case synthesizes a query
# for an examples/data relation over social_network.graph and compares
# stdout with tests/data/golden_synth/<case>.txt, and the exit code with
# the case's (0 definable, 3 not definable). Run as a CTest script with
# -DGQD=<gqd binary> -DDATA=<examples/data> -DGOLDEN=<golden directory>
# -DWORK=<scratch directory>. Regenerate a golden only when a change is
# meant to alter the synthesized expression, and say so.

# Like expect_synth, on a relation file given by path.
function(expect_synth_file name relation_file rc_expected)
  execute_process(COMMAND ${GQD} synth ${DATA}/social_network.graph
                          ${relation_file} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  file(READ ${GOLDEN}/${name}.txt golden)
  if(NOT rc EQUAL rc_expected)
    message(FATAL_ERROR "${name}: expected exit ${rc_expected}, got ${rc}\n"
                        "${out}\n${err}")
  endif()
  if(NOT out STREQUAL golden)
    message(FATAL_ERROR "${name}: output differs from ${name}.txt\n"
                        "got:      ${out}\nexpected: ${golden}")
  endif()
endfunction()

function(expect_synth name relation rc_expected)
  expect_synth_file(${name} ${DATA}/${relation}.pairs ${rc_expected} ${ARGN})
endfunction()

expect_synth(movie_link_rpq movie_link 3 --language rpq)
expect_synth(movie_link_rem_k1 movie_link 0 --language rem --k 1)
expect_synth(movie_link_rem_k2 movie_link 0 --language rem --k 2)
expect_synth(friend_chain_rpq friend_chain 0 --language rpq)
expect_synth(friend_chain_rem_k1 friend_chain 0 --language rem --k 1)

# A .gqdr relation synthesizes byte for byte what its pair text does.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${GQD} convert relation ${DATA}/social_network.graph
                        ${DATA}/movie_link.pairs ${WORK}/movie_link.gqdr
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert relation failed (${rc}): ${err}")
endif()
expect_synth_file(movie_link_rem_k1 ${WORK}/movie_link.gqdr 0
                  --language rem --k 1)
