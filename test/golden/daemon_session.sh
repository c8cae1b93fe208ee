#!/bin/sh
# Runs one `dsd serve` session for a golden rule:
#
#   sh daemon_session.sh DSD SOCKET NAME=EDGES 'client args' ...
#
# starts the daemon on SOCKET in the background, runs
# `DSD client --socket SOCKET <args>` for each argument in order
# (stopping at the first failure), then always stops the daemon:
# `client shutdown`, falling back to kill.  Exits with the first
# failing command's status, so a failing client fails the rule
# instead of leaving a daemon that blocks the build.
set -f
dsd=$1 sock=$2 graph=$3
shift 3
"$dsd" serve --socket "$sock" -g "$graph" --max-cached 4 --domains 1 &
pid=$!
for _ in $(seq 100); do test -S "$sock" && break; sleep 0.1; done
status=0
for args in "$@"; do
  # $args is split into words on purpose: one argument per client call.
  "$dsd" client --socket "$sock" $args || { status=$?; break; }
done
"$dsd" client --socket "$sock" shutdown || { s=$?; [ $status -ne 0 ] || status=$s; }
[ $status -eq 0 ] || kill "$pid" 2>/dev/null
wait "$pid"
exit $status
