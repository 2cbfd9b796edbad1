# UCRDPQ under --max-bytes: the homomorphism CSP of a 300-node scale-free
# graph (~37 MB of constraint tables) is refused under a 20 MB budget with
# exit 4, and decided (definable, exit 0) without one. Run as a CTest
# script with -DGQD=<gqd binary> -DWORK=<scratch dir>.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

execute_process(COMMAND ${GQD} gen scale-free --out ${WORK}/g.gqdg
                        --nodes 300 --edges-per-node 2 --labels 2 --values 3
                        --seed 5
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen scale-free failed: ${rc}")
endif()
execute_process(COMMAND ${GQD} gen relation --graph ${WORK}/g.gqdg
                        --out ${WORK}/s.gqdr --pairs 20 --seed 3
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen relation failed: ${rc}")
endif()

function(expect_exit code pattern)
  execute_process(COMMAND ${GQD} check ${WORK}/g.gqdg ${WORK}/s.gqdr
                          --language ucrdpq ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "expected exit ${code}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "output lacks '${pattern}': ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

expect_exit(4 "homomorphism CSP too large" --max-bytes 20000000)
expect_exit(0 "ucrdpq +definable")
