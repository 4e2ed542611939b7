//! # foundation — std-only workspace substrate
//!
//! This workspace builds from an empty cargo registry: no crates.io
//! dependencies anywhere in the graph (`cargo tree` shows workspace
//! members only). Everything the other crates used to pull from the
//! registry lives here instead, implemented on `std` alone:
//!
//! * [`par`] — data-parallel helpers (`par_iter().map().collect()`,
//!   `par_chunks_mut`, `for_each_index`) replacing `rayon`, running on a
//!   lazily-initialized persistent worker pool
//!   (`std::thread::available_parallelism()` threads, detected once per
//!   process, unless the `FOUNDATION_THREADS` env var, re-read per call,
//!   overrides);
//! * [`json`] — a small JSON value type plus the [`json::ToJson`] trait
//!   and a parser for reading reports back, replacing the `serde`
//!   derives;
//! * [`alloc_counter`] — a counting `#[global_allocator]` wrapper for
//!   asserting hot loops are allocation-free;
//! * [`buf`] — little/big-endian buffer read/write traits replacing
//!   `bytes::{Buf, BufMut}`;
//! * [`rng`] — deterministic splitmix64 and xoshiro256++ PRNGs replacing
//!   `rand`;
//! * [`prop`] — a compact property-testing harness (generator
//!   combinators, fixed-seed case generation, shrinking) replacing
//!   `proptest`;
//! * [`bench`] — a wall-clock micro-benchmark harness replacing
//!   `criterion` in the `bench-suite` bench targets;
//! * [`obs`] — host-side observability: RAII span tracing into
//!   thread-local ring buffers, a counters/histograms metrics registry,
//!   Fig. 9-style phase breakdowns and Chrome trace-event export;
//! * [`crc`] — CRC-32 (IEEE) checksumming for on-disk formats (the
//!   crash-consistent checkpoint format and future wire protocols).
//!
//! The policy is deliberate: reproductions should run anywhere a Rust
//! toolchain exists, network or not (see `DESIGN.md`, "zero-dependency
//! policy").

pub mod alloc_counter;
pub mod bench;
pub mod buf;
pub mod crc;
pub mod json;
pub mod obs;
pub mod par;
pub mod prop;
pub mod rng;
