# Convenience targets for the rel-rs workspace.
#
# The one rule worth internalizing: always build with --workspace. The
# root package is the `rel` façade crate, so a bare `cargo build
# --release` builds only the façade and its lib dependencies — every
# binary the façade does not depend on (rel-cli's `rel`, `rel-server`)
# is silently skipped and goes stale.
# CI builds with --workspace for the same reason (.github/workflows/ci.yml).

CARGO ?= cargo

.PHONY: build test ab doc clippy

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

# A/B the repo benchmark (BENCHMARK.json) against a base revision:
# make ab BASE=HEAD~1 WORKLOAD=txn_stream [PAIRS=10] — see scripts/ab_bench.sh.
ab:
	scripts/ab_bench.sh $(BASE) $(WORKLOAD) $(PAIRS)

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --exclude rel-cli

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings
