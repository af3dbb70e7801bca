#!/bin/sh
# One compile path (docs/compile-server.md, docs/batch-compilation.md):
# artifacts produced by a `longnail --connect` client against a live
# daemon and by a batch of one, cold and then warm from its cache,
# must be byte-identical to the one-shot CLI's for the same ISAX x
# core combo.
# Usage: cli_determinism.sh <longnail-binary> <build-dir>
set -e
LN=$1
cd "$2"

rm -rf serve_det_out solo_det_out batch_det_out batch_det_cache \
       serve_det.sock serve_det.log serve_det.jsonl \
       serve_det_client.jsonl solo_det.jsonl batch_det.err

# A batch of one (--jobs=1 engages batch mode): compile into
# batch_det_out/<pass><tag>/<unit>/ with a cold and then a warm cache,
# and check the warm run replayed the unit instead of compiling it.
batch_of_one() {
    tag=$1
    unit=$2
    shift 2
    for pass in cold warm; do
        "$LN" --jobs=1 --cache-dir batch_det_cache \
            -o "batch_det_out/$pass$tag" "$@" 2> batch_det.err
        test -d "batch_det_out/$pass$tag/$unit"
    done
    grep -q '1 hit(s)' batch_det.err
}

# Each batch unit directory must equal the one-shot and client ones.
diff_batch() {
    tag=$1
    unit=$2
    dir=$3
    for pass in cold warm; do
        diff -r "batch_det_out/$pass$tag/$unit" "solo_det_out/$dir"
        diff -r "batch_det_out/$pass$tag/$unit" "serve_det_out/$dir"
    done
}

# The structured event log rides along on both sides: artifacts must
# stay byte-identical with logging enabled (docs/observability.md).
"$LN" --serve --socket serve_det.sock --log serve_det.jsonl \
    > serve_det.log 2>&1 &
srv=$!
trap 'kill "$srv" 2>/dev/null || true' EXIT

# Readiness is "a ping round-trips", not "the socket file exists":
# the file appears at bind(), a connect can still race the listen().
i=0
until "$LN" --connect serve_det.sock --request ping >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "server never became ready" >&2
        cat serve_det.log >&2
        exit 1
    fi
    sleep 0.1
done

for f in isax_export/zol.core_desc isax_export/bitmanip.core_desc \
         isax_export/autoinc.core_desc; do
    n=$(basename "$f" .core_desc)
    for core in VexRiscv ORCA PicoRV32 Piccolo; do
        mkdir -p "serve_det_out/$n-$core" "solo_det_out/$n-$core"
        "$LN" --connect serve_det.sock --log serve_det_client.jsonl \
            --core "$core" -o "serve_det_out/$n-$core" "$f" 2>/dev/null
        "$LN" --quiet --log solo_det.jsonl --core "$core" \
            -o "solo_det_out/$n-$core" "$f"
        batch_of_one "" "$n@$core" --core "$core" "$f"
    done
done

# -O1 artifacts must be identical through the daemon too: the opt
# level travels in the compile request and in the cache key, so a
# served -O1 compile may not alias a cached -O0 artifact.
for core in VexRiscv ORCA; do
    mkdir -p "serve_det_out/zol-$core-O1" "solo_det_out/zol-$core-O1"
    "$LN" --connect serve_det.sock -O1 --core "$core" \
        -o "serve_det_out/zol-$core-O1" isax_export/zol.core_desc \
        2>/dev/null
    "$LN" --quiet -O1 --core "$core" -o "solo_det_out/zol-$core-O1" \
        isax_export/zol.core_desc
    # -O1 is its own cache key: this batch compiles, then replays.
    batch_of_one -O1 "zol@$core" -O1 --core "$core" \
        isax_export/zol.core_desc
done

"$LN" --connect serve_det.sock --request shutdown >/dev/null
wait "$srv" # a shutdown-request drain must exit 0

diff -r serve_det_out solo_det_out
for f in zol bitmanip autoinc; do
    for core in VexRiscv ORCA PicoRV32 Piccolo; do
        diff_batch "" "$f@$core" "$f-$core"
    done
done
for core in VexRiscv ORCA; do
    diff_batch -O1 "zol@$core" "zol-$core-O1"
done
# The logging really was on for every leg of the comparison.
grep -q '"ev":"serve.request"' serve_det.jsonl
grep -q '"ev":"client.request"' serve_det_client.jsonl
grep -q '"ev":' solo_det.jsonl
echo "determinism: daemon and batch artifacts equal the one-shot CLI's"
