//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! Shared vCPUs run the same code 20–30 % slower for minutes at a time
//! while neighbours are busy, and the guest's clocks cannot tell that time
//! apart from the program's own. The kernel is a small discrete-event
//! broadcast simulation written here, independent of the repository's
//! crates: an event heap, a range scan over node positions, a hash-map
//! table per receiver and a cloned frame per delivery, the same mix of
//! work as the simulator's hot path. Its host time moves with the host's
//! speed and never with a change to the program, so the benchmark scales
//! the program's times by it (see README.md, "Noise").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Nodes on the kernel's road, 28.6 m apart.
const NODES: usize = 140;
/// Radio range, metres.
const RANGE: f64 = 486.0;
/// Timed pieces per [`kernel_ns`] call, ~1 ms each.
const PIECES: u32 = 16;
/// Broadcasts per piece.
const BROADCASTS: u32 = 120;

/// The kernel time the benchmark scales its host times to, nanoseconds: a
/// round figure near one [`kernel_ns`] call on the baseline host (2-core
/// shared Xeon at 2.0 GHz), so scaled times read as that host's.
pub const REFERENCE_NS: f64 = 15e6;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One piece of the kernel; returns a checksum of its work.
fn piece() -> u64 {
    let mut rng = 0x5EED_u64;
    let mut pos: Vec<f64> = (0..NODES).map(|i| i as f64 * 28.6).collect();
    let mut tables: Vec<HashMap<u32, (f64, u64)>> = vec![HashMap::new(); NODES];
    let mut queue: BinaryHeap<Reverse<(u64, u32, Vec<u8>)>> = BinaryHeap::new();
    for n in 0..NODES as u32 {
        queue.push(Reverse((splitmix(&mut rng) % 100_000, n, vec![n as u8; 40])));
    }
    let mut receivers = Vec::with_capacity(NODES);
    let (mut sum, mut sent) = (0u64, 0u32);
    while let Some(Reverse((t, node, frame))) = queue.pop() {
        let n = node as usize;
        if frame.len() == 40 {
            // A beacon: move, then reach every node in range.
            sent += 1;
            if sent > BROADCASTS {
                break;
            }
            pos[n] = (pos[n] + 3.0) % (NODES as f64 * 28.6);
            let x = pos[n];
            receivers.clear();
            receivers.extend((0..NODES).filter(|&r| r != n && (pos[r] - x).abs() <= RANGE));
            for &r in &receivers {
                let mut copy = frame.clone();
                copy.push(r as u8);
                queue.push(Reverse((t + 1 + (splitmix(&mut rng) % 50), r as u32, copy)));
            }
            queue.push(Reverse((t + 100_000, node, frame)));
        } else {
            // A delivery: update the receiver's table from the sender.
            let from = u32::from(frame[0]);
            let entry = tables[n].entry(from).or_insert((0.0, 0));
            entry.0 = (entry.0 + pos[from as usize]).sqrt();
            entry.1 = t;
            sum = sum.wrapping_add(t ^ u64::from(frame[40])).wrapping_add(tables[n].len() as u64);
        }
    }
    sum
}

/// Host time of one kernel call, nanoseconds: the median of its timed
/// pieces times their count, so a descheduling gap inside one piece does
/// not count.
#[must_use]
pub fn kernel_ns() -> f64 {
    let mut pieces: Vec<f64> = (0..PIECES)
        .map(|_| {
            let start = Instant::now();
            black_box(piece());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    pieces.sort_by(f64::total_cmp);
    pieces[pieces.len() / 2] * f64::from(PIECES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piece_is_deterministic() {
        assert_eq!(piece(), piece());
    }
}
