# The REE level monoid depends on the graph alone, so a byte-budgeted REE
# check answers the same whichever backend holds S: the movie_link example
# under --max-bytes 5000 gives one verdict and one exit code for dense,
# sparse and blocked. Run as a CTest script with -DGQD=<gqd binary>
# -DDATA=<examples/data>.

set(first_rc "")
set(first_out "")
foreach(backend dense sparse blocked)
  execute_process(COMMAND ${GQD} check ${DATA}/social_network.graph
                          ${DATA}/movie_link.pairs --language ree
                          --max-bytes 5000 --relation-backend ${backend}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(first_rc STREQUAL "")
    set(first_rc ${rc})
    set(first_out "${out}")
  elseif(NOT rc EQUAL first_rc OR NOT out STREQUAL first_out)
    message(FATAL_ERROR "${backend} answers '${out}' (exit ${rc}); dense "
                        "answered '${first_out}' (exit ${first_rc})\n${err}")
  endif()
endforeach()
if(NOT first_rc EQUAL 0 OR NOT first_out MATCHES "ree +definable")
  message(FATAL_ERROR "expected 'ree definable', exit 0; got '${first_out}' "
                      "(exit ${first_rc})")
endif()
