#!/usr/bin/env bash
# The checks root CI runs on the workspace, for this nested crate, which the
# root manifest (and so root CI) does not see. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings -D clippy::unwrap_used
cargo test --offline
cargo run --offline --release --quiet -- --smoke
