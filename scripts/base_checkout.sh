# Shared by the scripts that compare the working tree with a base
# revision (prove_inert.sh, paired_bench.sh). Source it; it only defines
# functions and reads nothing at source time.

# build_side DIR: builds the `repro` CLI and `perfbench` in DIR (offline,
# release).
build_side() {
    (cd "$1" \
        && cargo build --release --offline --quiet -p geonet-scenarios --bin repro \
        && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
}

# checkout_base ROOT REV DIR: exports the committed files of REV in the
# repository at ROOT into DIR with `git archive` (the repository's .git
# gains no worktree entry), builds them with build_side, and prints the
# resolved commit.
checkout_base() {
    local root=$1 rev=$2 dir=$3 sha
    sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
    mkdir -p "$dir"
    git -C "$root" archive "$sha" | tar -x -C "$dir"
    build_side "$dir"
    echo "$sha"
}
