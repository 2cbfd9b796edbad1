# Numeric flags and --language are parsed strictly: a malformed value is a
# usage error (exit 2) naming the flag, never a silently different run.
# Run as a CTest script with -DGQD=<gqd binary> -DDATA=<examples/data>.

set(G ${DATA}/social_network.graph)
set(S ${DATA}/movie_link.pairs)

function(expect_usage pattern)
  execute_process(COMMAND ${GQD} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "stderr lacks '${pattern}': ${ARGN}\n${err}")
  endif()
endfunction()

# A unit suffix, a sign, junk, an empty value and overflow.
expect_usage("--max-bytes takes an integer.*'10MB'"
             check ${G} ${S} --max-bytes 10MB)
expect_usage("--max-bytes takes an integer.*'-1'"
             check ${G} ${S} --max-bytes -1)
expect_usage("--k takes an integer.*'abc'" check ${G} ${S} --k abc)
# An empty value cannot pass through ARGN; spell the call out.
execute_process(COMMAND ${GQD} check ${G} ${S} --k ""
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "--k takes an integer.*''")
  message(FATAL_ERROR "--k '' gave exit ${rc}\n${err}")
endif()
expect_usage("--k takes an integer.*'\\+1'" check ${G} ${S} --k +1)
expect_usage("--threads takes an integer.*'2 '" check ${G} ${S} --threads "2 ")
expect_usage("--max-tuples takes an integer"
             check ${G} ${S} --max-tuples 18446744073709551616)
expect_usage("--k takes an integer" synth ${G} ${S} --language rem --k 1.5)
expect_usage("--rows takes an integer" gen grid --out unused --rows 1e3)
expect_usage("--density takes a non-negative number.*'abc'"
             gen relation --graph ${G} --out unused --density abc)
expect_usage("--density takes a non-negative number.*'-2'"
             gen relation --graph ${G} --out unused --density -2)
# Ports are 16-bit: 70000 is refused, not wrapped to 4464.
expect_usage("--port takes an integer in \\[0, 65535\\]" serve --port 70000)
expect_usage("--worker takes an integer in \\[0, 65535\\]"
             route --worker 70000)
expect_usage("unknown --language 'bogus'"
             check ${G} ${S} --language bogus)
# Draw counts are capped by the graph: at most n² = 36 pairs and a density
# of at most n = 6 on the 6-node sample graph, never a reserve that aborts.
expect_usage("--pairs takes an integer in \\[0, 36\\].*'18446744073709551615'"
             gen relation --graph ${G} --out unused
             --pairs 18446744073709551615)
expect_usage("--pairs takes an integer in \\[0, 36\\].*'37'"
             gen relation --graph ${G} --out unused --pairs 37)
expect_usage("--density takes a number in \\[0, 6\\].*'1e300'"
             gen relation --graph ${G} --out unused --density 1e300)
expect_usage("--density takes a number in \\[0, 6\\].*'6.5'"
             gen relation --graph ${G} --out unused --density 6.5)
