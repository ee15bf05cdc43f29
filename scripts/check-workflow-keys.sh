#!/usr/bin/env bash
# check-workflow-keys.sh — fail on any mapping key repeated within one
# mapping of a GitHub Actions workflow.
#
#   check-workflow-keys.sh [file.yml ...]    (default: .github/workflows/*.yml)
#
# YAML parsers disagree about duplicate keys: GitHub rejects the whole
# workflow, while most other parsers silently keep the last value, so a
# step that lost its `- name:` line (and merged into the step above it)
# looks fine locally and never runs in CI. This is a line-oriented check
# in plain awk, enough for block-style workflow files: it tracks mapping
# scopes by indentation, starts a fresh scope at every sequence item, and
# skips comments and block-scalar (`|`, `>`) bodies. Flow-style mappings
# ({a: 1}) are not inspected. Exits 1 listing every duplicate found.
set -u

if [ "$#" -eq 0 ]; then
    set -- .github/workflows/*.yml
fi

exec awk '
function reset() {
    split("", seen)
    block = -1
}

# drop forgets every mapping scope nested deeper than indent ind.
function drop(ind,    k, parts) {
    for (k in seen) {
        split(k, parts, SUBSEP)
        if (parts[1] + 0 > ind)
            delete seen[k]
    }
}

FNR == 1 { reset() }

{
    sub(/\r$/, "")
    s = $0
    if (block >= 0) {
        if (s ~ /^[ ]*$/)
            next
        match(s, /^ */)
        if (RLENGTH > block)
            next
        block = -1
    }
    if (s ~ /^[ ]*(#.*)?$/)
        next
    if (s ~ /^(---|\.\.\.)([ ]|$)/) {
        reset()
        next
    }
    match(s, /^ */)
    ind = RLENGTH
    rest = substr(s, ind + 1)
    while (rest ~ /^-([ ]|$)/) {
        drop(ind)
        match(rest, /^- */)
        ind += RLENGTH
        rest = substr(rest, RLENGTH + 1)
    }
    if (!match(rest, /^"[^"]*"[ ]*:([ ]|$)/) && !match(rest, /^[^ #:"{[|>&*!%@,?][^:]*:([ ]|$)/))
        next
    key = substr(rest, 1, RLENGTH)
    value = substr(rest, RLENGTH + 1)
    sub(/[ ]*:[ ]?$/, "", key)
    gsub(/^"|"$/, "", key)
    drop(ind)
    if ((ind, key) in seen) {
        printf "%s:%d: duplicate key \"%s\" (first at line %d)\n", FILENAME, FNR, key, seen[ind, key]
        bad = 1
    } else {
        seen[ind, key] = FNR
    }
    if (value ~ /^[|>][-+0-9]*[ ]*(#.*)?$/)
        block = ind
}

END { exit bad }
' "$@"
