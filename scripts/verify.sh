#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --workspace --release --offline
# One pass runs every test binary. tests/invariance.rs checks Table I/II,
# Fig. 2, the derived tables, the cells and --explain chains against the
# goldens in tests/golden/ for every configuration of its matrix (serial,
# engine workers, warm caches, disk cold/warm/damaged, after a daemon
# session, instrumentation on/off), plus daemon-vs-batch, incremental and
# codec checks.
cargo test -q --offline --workspace

# Rustdoc gate: every intra-doc link must resolve, so no doc can keep
# pointing at an item that was renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Smoke: a metrics snapshot from a real corpus run must report every
# pipeline stage, the shared-cache counters, the interner counters, and
# the AST arena footprint counters.
metrics="$(mktemp)"
trap 'rm -f "$metrics"' EXIT
cargo run -q --release --offline -p phpsafe-bench --bin repro -- \
    --metrics-out "$metrics" table2 >/dev/null
for key in stage.lex stage.parse stage.analyze stage.eval cache.parse.hits \
           intern.symbols intern.hits cow.env_clones \
           ast.nodes ast.arena_bytes ast.slices; do
    grep -q "\"$key\"" "$metrics" || {
        echo "verify: $metrics is missing required key $key" >&2
        exit 1
    }
done

# Smoke: the taxonomy artifact must run the per-class evaluation and
# surface the taxonomy.* metric family (registry size plus per-class
# ground-truth/TP/FP gauges for every registered class slug).
taxonomy_metrics="$(mktemp)"
trap 'rm -f "$metrics" "$taxonomy_metrics"' EXIT
cargo run -q --release --offline -p phpsafe-bench --bin repro -- \
    --metrics-out "$taxonomy_metrics" taxonomy >/dev/null
for key in taxonomy.classes \
           taxonomy.truth.xss taxonomy.tp.xss taxonomy.fp.xss \
           taxonomy.truth.sqli taxonomy.truth.cmd-injection \
           taxonomy.tp.cmd-injection taxonomy.truth.path-traversal \
           taxonomy.tp.path-traversal taxonomy.truth.ssrf taxonomy.tp.ssrf; do
    grep -q "\"$key\"" "$taxonomy_metrics" || {
        echo "verify: $taxonomy_metrics is missing required key $key" >&2
        exit 1
    }
done

# Smoke: --explain over every 2014 plugin at once must print provenance
# chains ending in a sink, byte-identical at 1 and 8 workers (each
# analysis explains from its own taint events). `phpsafe` exits 1 when it
# finds vulnerabilities, so capture output before comparing.
plugin_dir="$(mktemp -d)"
trap 'rm -f "$metrics" "$taxonomy_metrics"; rm -rf "$plugin_dir"' EXIT
cargo run -q --release --offline -p phpsafe-corpus --bin corpus-dump -- "$plugin_dir" >/dev/null
explain_1="$(cargo run -q --release --offline -p phpsafe --bin phpsafe -- --explain --jobs 1 "$plugin_dir"/2014/*/ || true)"
explain_8="$(cargo run -q --release --offline -p phpsafe --bin phpsafe -- --explain --jobs 8 "$plugin_dir"/2014/*/ || true)"
[ "$explain_1" = "$explain_8" ] || {
    echo "verify: --explain output differs between --jobs 1 and --jobs 8" >&2
    exit 1
}
grep -q "reaches sink" <<<"$explain_1" || {
    echo "verify: --explain printed no provenance chain for the 2014 plugins" >&2
    exit 1
}

# Smoke: the daemon must start, answer one analyze round-trip, report the
# serve.*/diskcache.* metric families, and shut down cleanly. Driven over
# stdio so no port management is needed; the protocol is identical on TCP.
serve_cache="$(mktemp -d)"
serve_out="$(mktemp)"
serve_telemetry="$(mktemp)"
trap 'rm -f "$metrics" "$taxonomy_metrics" "$serve_out" "$serve_telemetry"; rm -rf "$plugin_dir" "$serve_cache"' EXIT
serve_plugin="$(ls -d "$plugin_dir"/2014/*/ | head -n 1)"
# The first analyze overlays an unsaved buffer on the plugin's main file,
# so the release binary parses a JSON-escaped buffer and overlays it.
serve_buffer="${serve_plugin}$(basename "$serve_plugin").php"
printf '{"cmd":"analyze","paths":["%s"],"buffers":{"%s":"%s"},"id":1}\n{"cmd":"invalidate","paths":["%s"],"id":2}\n{"cmd":"metrics"}\n{"cmd":"metrics","format":"prometheus"}\n{"cmd":"shutdown"}\n' \
    "$serve_plugin" "$serve_buffer" '<?php\n// unsaved \u00e9dit\necho \"<b>\" . $_GET[\"q\"];\n' "$serve_plugin" |
    cargo run -q --release --offline -p phpsafe --bin phpsafe -- \
        serve --stdio --cache-dir "$serve_cache" \
        --telemetry-out "$serve_telemetry" >"$serve_out" 2>/dev/null
[ "$(wc -l <"$serve_out")" -eq 5 ] || {
    echo "verify: daemon did not answer one line per request" >&2
    exit 1
}
sed -n 1p "$serve_out" | grep -q '"ok":true,"seq":1.*"reports"' || {
    echo "verify: daemon analyze round-trip failed or dropped the seq echo" >&2
    exit 1
}
if sed -n 1p "$serve_out" | grep -q '"warnings"'; then
    echo "verify: daemon analyze did not overlay the unsaved buffer" >&2
    exit 1
fi
sed -n 2p "$serve_out" | grep -q '"ok":true,"seq":2.*"projects"' || {
    echo "verify: daemon invalidate round-trip failed or dropped the seq echo" >&2
    exit 1
}
for key in serve.requests serve.accepted serve.request serve.analyze \
           serve.invalidate serve.request.queue_wait serve.request.wide_events \
           serve.worker_panics diskcache.misses diskcache.stores \
           diskcache.bytes_read diskcache.bytes_written \
           diskcache.store_failed depgraph.invalidated \
           incremental.files_dirty incremental.files_reanalyzed \
           diskcache.bytes_on_disk.ast diskcache.bytes_on_disk.outcome; do
    sed -n 3p "$serve_out" | grep -q "\"$key\"" || {
        echo "verify: daemon metrics reply is missing key $key" >&2
        exit 1
    }
done
sed -n 4p "$serve_out" | grep -q 'phpsafe_serve_requests' || {
    echo "verify: Prometheus exposition is missing phpsafe_serve_requests" >&2
    exit 1
}
sed -n 5p "$serve_out" | grep -q '"shutting_down":true' || {
    echo "verify: daemon did not acknowledge shutdown" >&2
    exit 1
}
# One wide event per request must have been streamed to --telemetry-out.
[ "$(wc -l <"$serve_telemetry")" -eq 5 ] || {
    echo "verify: --telemetry-out did not record one wide event per request" >&2
    exit 1
}
grep -q '"queue_wait_us"' "$serve_telemetry" || {
    echo "verify: wide events are missing queue-wait attribution" >&2
    exit 1
}

# Smoke: a second daemon of the same build answers the saved plugin from
# the first one's outcome entry (the invalidate above stored it), so the
# build stamp is stable across processes. No call summaries or dependency
# graphs reach disk.
second_out="$(printf '{"cmd":"analyze","paths":["%s"]}\n' "$serve_plugin" |
    cargo run -q --release --offline -p phpsafe --bin phpsafe -- \
        serve --stdio --cache-dir "$serve_cache" 2>/dev/null)"
grep -q '"fully_cached":true' <<<"$second_out" || {
    echo "verify: a second daemon missed the first one's cache entries" >&2
    exit 1
}
for ns in summary depgraph; do
    [ ! -e "$serve_cache/$ns" ] || {
        echo "verify: the cache dir holds a $ns namespace" >&2
        exit 1
    }
done

# Smoke: a --cache-dir that cannot be opened (here a regular file) warns
# and caches in memory only. A clean batch run still exits 0, with the
# bytes of a run without a cache.
clean_plugin="$plugin_dir/clean-plugin"
mkdir -p "$clean_plugin"
printf '<?php echo "ok";\n' >"$clean_plugin/clean.php"
touch "$serve_cache/not-a-dir"
json_plain="$(cargo run -q --release --offline -p phpsafe --bin phpsafe -- --json "$clean_plugin")"
json_degraded="$(cargo run -q --release --offline -p phpsafe --bin phpsafe -- \
    --json --cache-dir "$serve_cache/not-a-dir" "$clean_plugin" 2>/dev/null)" || {
    echo "verify: a batch run over an unusable --cache-dir did not exit 0" >&2
    exit 1
}
[ "$json_plain" = "$json_degraded" ] || {
    echo "verify: an unusable --cache-dir changed the batch --json bytes" >&2
    exit 1
}
