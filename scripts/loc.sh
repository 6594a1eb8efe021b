#!/bin/sh
# Code size in lines of C++ (*.cc + *.hh): src in total and per module,
# then bench, tests and simbench. This is the "Code size" row of
# ROADMAP.md, reproducible with one command. Last, "settings N" counts
# the settable values: data members with a default initialiser in the
# src structs named *Config, *Options, *Timing, *Spec or *Schedule.
# Informational: it always exits 0.
#
# Usage: scripts/loc.sh
set -e

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"

# Lines in the *.cc and *.hh files under $1 (0 when there are none).
count() {
    find "$1" -type f \( -name '*.cc' -o -name '*.hh' \) -exec cat {} + |
        wc -l | tr -d ' '
}

modules=$(ls -d src/*/ | wc -l | tr -d ' ')
echo "src $(count src) lines ($modules modules)"
for dir in src/*/; do
    printf '  %-12s %6s\n' "$(basename "$dir")" "$(count "$dir")"
done
for tree in bench tests simbench; do
    echo "$tree $(count "$tree")"
done

# Members declared at the top level of a matching struct whose
# declaration carries "= value" or "{...}" (not functions, statics,
# nested types or aliases).
settings() {
    find src -type f \( -name '*.cc' -o -name '*.hh' \) | sort |
        xargs awk '
FNR == 1 { inside = 0 }
/^[ \t]*struct [A-Za-z0-9_]*(Config|Options|Timing|Spec|Schedule)[ \t]*$/ {
    inside = 1; depth = 0; stmt = ""; next
}
!inside { next }
{
    line = $0
    sub(/\/\/.*/, "", line)
    gsub(/\/\*.*\*\//, "", line)
    if (line ~ /^[ \t]*(\/\*|\*)/) next
    opens = gsub(/\{/, "{", line)
    closes = gsub(/\}/, "}", line)
    if (depth == 0) { depth = opens - closes; next }
    if (depth == 1) stmt = stmt " " line
    depth += opens - closes
    if (depth == 0) { inside = 0; next }
    if (depth > 1 || stmt !~ /[;}][ \t]*$/) next
    s = stmt; stmt = ""
    if (s ~ /^[ \t]*(static|using|friend|typedef|enum|struct|return)[ \t]/)
        next
    head = s; sub(/[={].*/, "", head)
    if (head !~ /\(/ && s ~ /[={]/) n++
}
END { print n + 0 }'
}
echo "settings $(settings)"
