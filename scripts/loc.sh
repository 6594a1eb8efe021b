#!/bin/sh
# Code size in lines of C++ (*.cc + *.hh): src in total and per module,
# then bench, tests and simbench. This is the "Code size" row of
# ROADMAP.md, reproducible with one command. Informational: it always
# exits 0.
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
