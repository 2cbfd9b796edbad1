# `gqd check`, `eval`, `lint` and `info` output on examples/data is pinned
# byte for byte: each case runs one command and compares its exit code,
# stdout and stderr with tests/data/golden_cli/<case>.txt. Timings and
# process memory (wall_ms, peak_rss_kb, load_micros, "load time") are
# masked. Run as a CTest script with -DGQD=<gqd binary>
# -DDATA=<examples/data> -DGOLDEN=<golden directory>. Each golden is a
# captured run of a known-good binary; edit one only when a change is
# meant to alter that output, and say so.

set(G ${DATA}/social_network.graph)
set(S ${DATA}/movie_link.pairs)
set(F ${DATA}/friend_chain.pairs)

function(golden name)
  execute_process(COMMAND ${GQD} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  set(got "exit: ${rc}\n--- stdout\n${out}--- stderr\n${err}")
  string(REGEX REPLACE "\"wall_ms\":[0-9.]+" "\"wall_ms\":MASKED"
         got "${got}")
  string(REGEX REPLACE "\"peak_rss_kb\":[0-9]+" "\"peak_rss_kb\":MASKED"
         got "${got}")
  string(REGEX REPLACE "\"load_micros\":[0-9]+" "\"load_micros\":MASKED"
         got "${got}")
  string(REGEX REPLACE "load time: [0-9]+ us" "load time: MASKED us"
         got "${got}")
  file(READ ${GOLDEN}/${name}.txt expected)
  if(NOT got STREQUAL expected)
    message(SEND_ERROR "${name}: output differs from ${name}.txt\n"
                       "got:\n${got}\nexpected:\n${expected}")
  endif()
endfunction()

# A usage error: exit 2 and the usage text on stderr. Only its first lines
# are checked, so an edit to another command's usage leaves this alone.
function(usage_error name)
  execute_process(COMMAND ${GQD} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR
     NOT err MATCHES "^usage:\n  gqd eval <graph> <rpq[|]regex[|]rem[|]ree> ")
    message(SEND_ERROR "${name}: expected exit 2 and the usage text, got "
                       "${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# check: the definability matrix, as text and as --json, per language.
golden(check_all check ${G} ${S})
golden(check_all_k1 check ${G} ${S} --k 1)
golden(check_rpq check ${G} ${S} --language rpq)
golden(check_rem check ${G} ${S} --language rem --k 1)
golden(check_ree check ${G} ${S} --language ree)
golden(check_ucrdpq check ${G} ${S} --language ucrdpq)
golden(check_all_json check ${G} ${S} --json)
golden(check_rpq_json check ${G} ${S} --language rpq --json)
golden(check_rem_json check ${G} ${S} --language rem --k 1 --json)
golden(check_ree_json check ${G} ${S} --language ree --json)
golden(check_ucrdpq_json check ${G} ${S} --language ucrdpq --json)
golden(check_friend_chain_json check ${G} ${F} --k 1 --json)
golden(check_sparse_json check ${G} ${F} --language rpq
       --relation-backend sparse --json)
# --max-tuples trips: budget exhausted, exit 4.
golden(check_rem_max_tuples check ${G} ${S} --language rem --k 2
       --max-tuples 3)
golden(check_rpq_max_tuples check ${G} ${S} --language rpq --max-tuples 1)
golden(check_ree_max_tuples check ${G} ${S} --language ree --max-tuples 2)
golden(check_rem_max_tuples_json check ${G} ${S} --language rem --k 2
       --max-tuples 3 --json)

# eval, with and without --explain, in every query language.
golden(eval_regex eval ${G} regex "friend+")
golden(eval_rpq eval ${G} rpq "friend.friend")
golden(eval_rem eval ${G} rem "$r1. friend+ [r1=]")
golden(eval_ree eval ${G} ree "(friend+)=")
golden(eval_regex_explain eval ${G} regex "friend+" --explain eve bob)
golden(eval_rem_explain eval ${G} rem "$r1. friend+ [r1=]" --explain eve bob)
golden(eval_rem_explain_absent eval ${G} rem "$r1. friend+ [r1=]"
       --explain bob eve)
golden(eval_ree_explain eval ${G} ree "(friend+)=" --explain fin cam)
golden(eval_rem_preflight eval ${G} rem "friend [r1=]" --preflight)
golden(eval_rem_parse_error eval ${G} rem "$r1. (friend")
usage_error(eval_unknown_language eval ${G} sparql "x")
# --max-tuples trips exit 4 in every language, however small the search.
golden(eval_ree_max_tuples eval ${G} ree "(friend+)=" --max-tuples 1)
golden(eval_regex_max_tuples eval ${G} regex "friend+" --max-tuples 1)
golden(eval_rem_max_tuples eval ${G} rem "$r1. friend+ [r1=]" --max-tuples 1)

# lint, as text and as --json.
golden(lint_rem_clean lint rem "$r1. friend+ [r1=]")
golden(lint_rem_defect lint rem "friend [r1=]")
golden(lint_rem_defect_json lint rem "friend [r1=]" --json)
golden(lint_regex_graph lint regex "friend.zz" --graph ${G})
golden(lint_regex_graph_json lint regex "friend.zz" --graph ${G} --json)
golden(lint_rpq lint rpq "friend.zz" --graph ${G})
golden(lint_ree lint ree "(friend)=" --graph ${G} --no-notes)
golden(lint_ree_parse_error lint ree "(friend")
usage_error(lint_unknown_language lint sparql "x")

# info, as text and as --json.
golden(info_text info ${G})
golden(info_json info ${G} --json)
