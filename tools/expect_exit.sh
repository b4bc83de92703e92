#!/bin/sh
# Runs a tool on bad input and checks that it exits with CODE (2 for a bad
# flag value, 1 for a bad input file) and names the offending text on
# stderr, rather than aborting on an uncaught exception (exit 134) or
# silently accepting the value.
#
#   expect_exit.sh CODE TEXT TOOL ARGS...
want_code="$1"
want="$2"
shift 2
err=$("$@" 2>&1 >/dev/null)
code=$?
if [ "$code" -ne "$want_code" ]; then
  echo "exit $code, expected $want_code: $*"
  echo "$err"
  exit 1
fi
case "$err" in
  *"$want"*) ;;
  *)
    echo "stderr does not name '$want': $err"
    exit 1
    ;;
esac
