#!/bin/sh
# Records a short replay, then patches each element count of its
# flight-recorder file to 0xFFFFFFFF in turn (string table, job index,
# one posting list, time index) and checks that `dbsq summary` exits 1
# naming the section, rather than aborting on an allocation sized from
# the count (exit 134).
#
#   expect_corrupt_record_rejected.sh DBSIM DBSQ SWF WORKDIR
dbsim="$1"
dbsq="$2"
swf="$3"
dir="$4"
mkdir -p "$dir" || exit 1
good="$dir/good.dbsr"
"$dbsim" --swf "$swf" --record-out "$good" >/dev/null || exit 1
size=$(wc -c < "$good")
footer=$((size - 64))

# u64 at byte offset $1 of the intact file.
field() { od -An -t u8 -j "$1" -N 8 "$good" | tr -d ' '; }
strings_off=$(field $((footer + 8)))
job_index_off=$(field $((footer + 16)))
time_index_off=$(field $((footer + 32)))

status=0
# check NAME TEXT OFFSET...: 0xFFFFFFFF at every OFFSET, then dbsq.
check() {
  name="$1"
  want="$2"
  shift 2
  bad="$dir/$name.dbsr"
  cp "$good" "$bad"
  for offset in "$@"; do
    printf '\377\377\377\377' |
      dd of="$bad" bs=1 seek="$offset" conv=notrunc 2>/dev/null
  done
  err=$("$dbsq" summary "$bad" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "$name: exit $code, expected 1: $err"
    status=1
  fi
  case "$err" in
    *"$want"*) ;;
    *)
      echo "$name: stderr does not name '$want': $err"
      status=1
      ;;
  esac
}

check strings "string table" "$strings_off"
# The footer's job count too, so the count cross-check does not fire first.
check jobs "job index" "$job_index_off" $((footer + 40))
# The first entry's posting count: after the u32 entry count, u64 job and
# u64 postings start.
check postings "postings" $((job_index_off + 20))
# After the i64 first bucket.
check buckets "time index" $((time_index_off + 8))
exit $status
