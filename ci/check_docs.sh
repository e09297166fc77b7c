#!/usr/bin/env bash
# Documentation consistency gate, run by ci/sanitize.sh and ci/tsan.sh (or
# standalone). Six checks:
#
#  1. Markdown link check: every relative link target referenced from the
#     top-level docs and docs/*.md must exist in the tree (external http(s)
#     links are not fetched).
#  2. Doc-drift check: every field of the user-facing option structs
#     (runtime::ClusterConfig, runtime::FaultConfig, runtime::spill::
#     SpillConfig, exec::ExecOptions, plan::OptimizerOptions) must be
#     mentioned by name somewhere in the documentation, so adding a knob
#     without documenting it fails CI.
#  3. Reverse check: each of those structs has an option table in the
#     "Configuration reference" of docs/ARCHITECTURE.md (the table under the
#     line naming the struct), and its field rows (first cell a backtick
#     name) are exactly the struct's fields, so a retired knob's row fails
#     like an undocumented field does. And every enable_* token in the
#     documentation must name a field of one of those structs, so a retired
#     flag cannot linger anywhere in the docs.
#  4. Statistic table: every uint64_t field of runtime::StageStats must have
#     a kStatFields row (&StageStats::<field>) in src/runtime/stats.h, and
#     every row's JSON key must be a backtick token in docs/METRICS.md.
#     Metric series both ways: every "trance_..." string literal in src/ (a
#     table row's series or a series JobStats::Snapshot derives) must be a
#     backtick token in docs/METRICS.md, and every trance_... row of its
#     series table must be such a literal in src/, so a dropped series' row
#     fails. (ci/bench_smoke.sh only sees the keys a smoke run happens to
#     emit; this check sees every row and series.)
#  5. Storage spec: the `version` value in the file-header table of
#     docs/STORAGE.md must equal kFormatVersion in src/runtime/serde.h; the
#     codes and names of its column-kind table must equal the kCol*
#     constants and those of its field-tag table the kField* constants in
#     src/runtime/serde.cc; and every checksum vector in its reference-vector
#     table (a row whose first cell is a quoted input), and the checksum
#     bytes of its worked example, must appear in tests/serde_test.cc.
#  6. Code names: every backticked qualified C++ name in the documentation
#     (`A::B`, `a::b::C` or `A::B()`) must have each of its `::` parts appear
#     as a word somewhere in src/, bench/, tests/ or examples/, so a doc that
#     still names a deleted class or function fails.
#
# Usage: ci/check_docs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/METRICS.md docs/STORAGE.md)
fail=0

# --- 1. relative markdown links -----------------------------------------
for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || { echo "MISSING DOC: $doc"; fail=1; continue; }
  dir=$(dirname "$doc")
  # [text](target) links, minus externals, anchors and mailto.
  while IFS= read -r target; do
    target="${target%%#*}"            # strip fragment
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK in $doc: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' |
           grep -vE '^(https?:|mailto:|#)' || true)
done

# --- 2. option-struct fields must appear in the docs --------------------
# Extracts field names from a struct definition: lines like
#   <type> <name> = <default>;   <type> <name>{...};   or   <type> <name>;
fields_of() { # file struct_name
  awk -v s="struct $2 {" '
    index($0, s) { in_s = 1; next }
    in_s && /^};/ { in_s = 0 }
    in_s' "$1" |
    grep -vE '^\s*(//|/\*|\*)' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*\s*(\{[^}]*\}|=[^;]*)?;' |
    sed -E 's/\s*(=|\{).*$//; s/;$//' | sed -E 's/^\s+|\s+$//g'
}

check_struct() { # file struct_name
  local f
  for f in $(fields_of "$1" "$2"); do
    if ! grep -qF "$f" "${DOCS[@]}"; then
      echo "UNDOCUMENTED FIELD: $2::$f (from $1) appears in none of: ${DOCS[*]}"
      fail=1
    fi
  done
}

STRUCTS=(
  "src/runtime/cluster.h ClusterConfig"
  "src/runtime/fault.h FaultConfig"
  "src/runtime/spill.h SpillConfig"
  "src/exec/lowering.h ExecOptions"
  "src/plan/optimizer.h OptimizerOptions"
)
known_fields=""
for entry in "${STRUCTS[@]}"; do
  # shellcheck disable=SC2086  # "file struct" splits into two arguments
  check_struct $entry
  # shellcheck disable=SC2086
  known_fields+="$(fields_of $entry)"$'\n'
done

# --- 3. option tables name exactly the live fields ----------------------
ARCH=docs/ARCHITECTURE.md
# "<struct> <field>" per field row of the Configuration reference tables; a
# table belongs to the struct named by the last `ns::Struct` line above it.
table_rows=$(awk '
  /^### Configuration reference/ { s = 1; next }
  s && /^#/ { s = 0 }
  s && /^`[A-Za-z_:]+` \(/ { st = $1; gsub(/`/, "", st); sub(/.*::/, "", st) }
  s && /^\| `[A-Za-z0-9_]+` \|/ { f = $2; gsub(/`/, "", f); print st, f }
' "$ARCH")
for entry in "${STRUCTS[@]}"; do
  read -r file struct <<<"$entry"
  rows=$(awk -v s="$struct" '$1 == s { print $2 }' <<<"$table_rows" | sort)
  live=$(fields_of "$file" "$struct" | sort)
  if [ -z "$rows" ]; then
    echo "NO OPTION TABLE: $struct ($file) has no table in $ARCH's" \
      "Configuration reference"
    fail=1
    continue
  fi
  for f in $(comm -23 <(echo "$rows") <(echo "$live")); do
    echo "STALE OPTION ROW: $ARCH's $struct table has a row for '$f'," \
      "which is not a field of $struct ($file)"
    fail=1
  done
  for f in $(comm -13 <(echo "$rows") <(echo "$live")); do
    echo "MISSING OPTION ROW: $struct::$f ($file) has no row in $ARCH's" \
      "$struct table"
    fail=1
  done
done

# Documented enable_* tokens must be live option fields.
while IFS= read -r tok; do
  if ! grep -qxF "$tok" <<<"$known_fields"; then
    echo "STALE OPTION IN DOCS: $tok names no field of the option structs" \
      "(${STRUCTS[*]})"
    fail=1
  fi
done < <(grep -ohE '\benable_[A-Za-z0-9_]+' "${DOCS[@]}" | sort -u)

# --- 4. the statistic table vs StageStats and docs/METRICS.md -------------
STATS_H=src/runtime/stats.h
table=$(awk '/kStatFields\[\] = \{/ { t = 1 } t { print } t && /^};/ { t = 0 }' \
  "$STATS_H")
[ -n "$table" ] || { echo "NO STATISTIC TABLE: kStatFields not found in $STATS_H"; fail=1; }
while IFS= read -r field; do
  if ! grep -qF "&StageStats::$field," <<<"$table"; then
    echo "STATISTIC WITHOUT TABLE ROW: StageStats::$field has no kStatFields" \
      "row in $STATS_H"
    fail=1
  fi
done < <(awk '/^struct StageStats \{/ { s = 1; next } s && /^};/ { s = 0 } s' \
           "$STATS_H" | grep -oE '^\s*uint64_t\s+[A-Za-z0-9_]+' |
           awk '{ print $2 }')
while IFS= read -r tok; do
  if ! grep -qF "\`$tok\`" docs/METRICS.md; then
    echo "UNDOCUMENTED STATISTIC: $tok (a kStatFields key in $STATS_H) is" \
      "not a backtick token in docs/METRICS.md"
    fail=1
  fi
done < <(grep -oE '\{"[A-Za-z0-9_]+", &StageStats::' <<<"$table" |
           sed -E 's/^\{"//; s/",.*$//' | sort -u)
src_series=$(grep -rhoE '"trance_[A-Za-z0-9_]+"' src | tr -d '"' | sort -u)
[ -n "$src_series" ] || { echo "NO METRIC SERIES: no \"trance_...\" literal in src/"; fail=1; }
for tok in $src_series; do
  if ! grep -qF "\`$tok\`" docs/METRICS.md; then
    echo "UNDOCUMENTED SERIES: $tok (a string literal in src/) is not a" \
      "backtick token in docs/METRICS.md"
    fail=1
  fi
done
doc_series=$(sed -nE 's/^\| `(trance_[A-Za-z0-9_]+)` \|.*/\1/p' docs/METRICS.md |
  sort -u)
[ -n "$doc_series" ] || { echo "NO SERIES TABLE: no trance_ row in docs/METRICS.md"; fail=1; }
for tok in $(comm -23 <(echo "$doc_series") <(echo "$src_series")); do
  echo "STALE SERIES ROW: docs/METRICS.md has a row for $tok, which is no" \
    "\"$tok\" string literal in src/"
  fail=1
done

# --- 5. the storage spec vs the serde code and tests ----------------------
STORAGE=docs/STORAGE.md
spec_version=$(grep -E '^\| *4 *\| *2 *\| *version *\|' "$STORAGE" |
  sed -nE 's/.*`u16` `([0-9]+)`.*/\1/p' || true)
code_version=$(grep -oE 'kFormatVersion = [0-9]+;' src/runtime/serde.h |
  grep -oE '[0-9]+' || true)
if [ -z "$spec_version" ] || [ "$spec_version" != "$code_version" ]; then
  echo "FORMAT VERSION DRIFT: $STORAGE file header says version" \
    "'${spec_version}', src/runtime/serde.h kFormatVersion is '${code_version}'"
  fail=1
fi
vectors=$(grep -E '^\| *`"' "$STORAGE" | grep -oE '0x[0-9a-fA-F]{16}' || true)
if [ -z "$vectors" ]; then
  echo "NO CHECKSUM VECTORS: no reference-vector rows found in $STORAGE"
  fail=1
fi
for v in $vectors; do
  if ! grep -qiF "$v" tests/serde_test.cc; then
    echo "UNTESTED CHECKSUM VECTOR: $v (from $STORAGE) is not in tests/serde_test.cc"
    fail=1
  fi
done
# The code tables: "<code> <name>" pairs from a STORAGE.md section's table
# rows, and from the matching constants of src/runtime/serde.cc (kColInt64 =
# 0 gives "0 int64").
section() { # heading
  awk -v h="$1" '$0 == h { s = 1; next } s && /^#/ { s = 0 } s' "$STORAGE"
}
spec_pairs() { # heading cell-regex
  section "$1" |
    sed -nE 's/^\| *`?('"$2"')`? *\| *([a-z0-9]+) *\|.*/\1 \2/p' | sort
}
code_pairs() { # constant-prefix
  grep -oE "k$1[A-Za-z0-9]+ = [0-9a-fA-Fx]+;" src/runtime/serde.cc |
    sed -E "s/^k$1([A-Za-z0-9]+) = ([0-9a-fA-Fx]+);/\2 \1/" |
    awk '{ print $1, tolower($2) }' | sort
}
check_table() { # what heading cell-regex constant-prefix
  local spec code
  spec=$(spec_pairs "$2" "$3")
  code=$(code_pairs "$4")
  if [ -z "$spec" ] || [ "$spec" != "$code" ]; then
    echo "$1 DRIFT: $STORAGE '$2' table lists [$(echo $spec)]," \
      "src/runtime/serde.cc k$4* constants are [$(echo $code)]"
    fail=1
  fi
}
check_table "COLUMN KIND" "### Column encodings" "[0-9]+" "Col"
check_table "FIELD TAG" "## The recursive field encoding" "0x[0-9a-f]{2}" "Field"
example_sum=$(section "### Worked example" | grep -E 'XXH64 of the payload' |
  grep -oE '^([0-9a-f]{2} ){7}[0-9a-f]{2}' || true)
if [ -z "$example_sum" ]; then
  echo "NO WORKED-EXAMPLE CHECKSUM: no 'XXH64 of the payload' line in $STORAGE"
  fail=1
elif ! grep -qiF "$example_sum" tests/serde_test.cc; then
  echo "UNTESTED WORKED EXAMPLE: checksum bytes '$example_sum' (from" \
    "$STORAGE) are not in tests/serde_test.cc"
  fail=1
fi

# --- 6. qualified code names in the docs must exist in the code ----------
CODE_DIRS=(src bench tests examples)
names=0
while IFS=: read -r doc name; do
  names=$((names + 1))
  for part in $(sed -E 's/\(\)$//; s/::/ /g' <<<"$name"); do
    if ! grep -rqw -- "$part" "${CODE_DIRS[@]}"; then
      echo "STALE CODE NAME in $doc: \`$name\` — '$part' is not a word" \
        "anywhere in ${CODE_DIRS[*]}"
      fail=1
    fi
  done
done < <(grep -oHE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+(\(\))?`' \
           "${DOCS[@]}" | tr -d '`' | sort -u)
if [ "$names" -eq 0 ]; then
  echo "NO CODE NAMES: no backticked qualified name found in ${DOCS[*]}"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK (${#DOCS[@]} docs, links + option-struct coverage both ways + option tables + statistic table + metric series both ways + storage spec and its code tables + code names in $names doc/name pairs)"
