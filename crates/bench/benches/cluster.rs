//! `cargo bench` entry point for the cluster suite; the implementation
//! lives in [`basecache_bench::cluster_suite`].

fn main() {
    basecache_bench::cluster_suite::run();
}
