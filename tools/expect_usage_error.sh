#!/bin/sh
# Runs a tool with a bad flag value and checks that it exits 2 (usage
# error) and names the offending text on stderr, rather than aborting on an
# uncaught exception (exit 134) or silently accepting the value.
#
#   expect_usage_error.sh TEXT TOOL ARGS...
want="$1"
shift
err=$("$@" 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 2 ]; then
  echo "exit $code, expected 2: $*"
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
