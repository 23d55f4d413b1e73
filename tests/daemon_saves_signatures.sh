#!/bin/sh
# Serves a generated corpus with --signatures F, shuts the daemon down
# through --client, and checks that F was written on the way out.
#   sh daemon_saves_signatures.sh path/to/corpus_discovery_tool
set -eu
tool=$1
work=$(mktemp -d)
pid=
# Whatever happens, leave no daemon running and no files behind.
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$work"' EXIT

"$tool" --gen "$work/corpus" --tables 4 --rows 20 >/dev/null
"$tool" "$work/corpus" --serve "$work/tjd.sock" \
    --signatures "$work/signatures.tj" >"$work/daemon.log" 2>&1 &
pid=$!

tries=0
until [ -S "$work/tjd.sock" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 200 ] || ! kill -0 "$pid" 2>/dev/null; then
    echo "daemon never opened its socket" >&2
    cat "$work/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done

"$tool" --client "$work/tjd.sock" '{"op":"shutdown"}' >/dev/null
wait "$pid"
pid=

if ! head -n 1 "$work/signatures.tj" 2>/dev/null |
    grep -q '^# tj-signatures v2'; then
  echo "daemon did not write the signature cache" >&2
  exit 1
fi
