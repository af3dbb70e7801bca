#!/bin/sh
# Golden artifacts of the example catalog: compiles every exported ISAX
# on the four built-in cores at -O0 and -O1 and compares the SHA-256 of
# each generated .sv and .scaiev.yaml, plus the `ASIC:` line of
# --report, against the committed manifest. Scheduler effort (LP work
# units, objective) and timings are left out, so a change that keeps
# every artifact keeps the manifest.
#
# usage: catalog_golden.sh LONGNAIL ISAX_DIR MANIFEST WORK_DIR [--update]
#
# ISAX_DIR holds the exported catalog (the cli_export test, or
# `export-isaxes DIR`). Regenerate the manifest after an intended
# output change with:
#
#   sh tests/golden/catalog_golden.sh build/tools/longnail \
#       build/isax_export tests/golden/catalog.sha256 \
#       build/catalog_golden --update
set -e
longnail=$1
isax_dir=$2
manifest=$3
work=$4

rm -rf "$work"
mkdir -p "$work"
for opt in -O0 -O1; do
    for core in ORCA Piccolo PicoRV32 VexRiscv; do
        for src in "$isax_dir"/*.core_desc; do
            unit=$(basename "$src" .core_desc)
            dir="${opt#-}/$core/$unit"
            mkdir -p "$work/$dir"
            if ! "$longnail" --core "$core" "$opt" --report \
                    -o "$work/$dir" "$src" > "$work/$dir.report" \
                    2> "$work/$dir.err"; then
                echo "catalog_golden: $dir failed to compile" >&2
                cat "$work/$dir.err" >&2
                exit 1
            fi
            (cd "$work" && sha256sum "$dir"/*.sv "$dir"/*.scaiev.yaml) \
                >> "$work/manifest"
            sed -n "s|^  ASIC: |ASIC $dir: |p" "$work/$dir.report" \
                >> "$work/manifest"
        done
    done
done

if [ "$5" = "--update" ]; then
    cp "$work/manifest" "$manifest"
    echo "catalog_golden: wrote $manifest"
    exit 0
fi
if ! diff -u "$manifest" "$work/manifest"; then
    echo "catalog_golden: artifacts differ from $manifest" >&2
    exit 1
fi
echo "catalog_golden: $(grep -c . "$manifest") entries match"
