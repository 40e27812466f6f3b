//! Seeded payloads and the delivery checks.
//!
//! The payload table is drawn from the workload seed out of a small pool
//! of values, so the same value is in the queue many times over: the
//! repeated-value (ABA) case that the paper's value-independent queues
//! must survive. The pool includes 0, `u64::MAX` and the top bit, which
//! matter in `shm_stream`, where values go straight into the ring.

/// Length of the payload table; message `i` carries entry `i % TABLE`.
const TABLE: usize = 4096;
/// Number of distinct payload values.
const POOL: usize = 61;

/// splitmix64: a full-period mixer, so nearby seeds give unrelated
/// tables.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The messages of one run, generated from the seed.
pub struct Payloads {
    table: Box<[u64]>,
}

impl Payloads {
    pub fn new(seed: u64) -> Self {
        let mut pool: Vec<u64> = (0..POOL as u64).map(|i| mix(seed ^ mix(i))).collect();
        pool[0] = 0;
        pool[1] = u64::MAX;
        pool[2] = 1 << 63;
        let table = (0..TABLE as u64)
            .map(|i| pool[(mix(seed.wrapping_add(i) ^ 0x5bd1_e995) % POOL as u64) as usize])
            .collect();
        Payloads { table }
    }

    /// Value of message `seq` in the FIFO workloads.
    #[inline]
    pub fn value(&self, seq: u64) -> u64 {
        self.table[seq as usize % TABLE]
    }

    /// Value of message `seq` in `pipeline`: the sequence number in the
    /// high bits, so the exactly-once bitmap can index it, and a seeded
    /// repeating tag in the low byte.
    #[inline]
    pub fn tagged(&self, seq: u64) -> u64 {
        (seq << 8) | (self.value(seq) & 0xff)
    }

    /// Distinct values in the table.
    pub fn distinct(&self) -> usize {
        let mut v = self.table.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// Exact-sequence check for the FIFO workloads: the `k`-th delivered
/// value must be message `k`'s value, and exactly as many messages must
/// arrive as were sent.
#[derive(Default)]
pub struct FifoCheck {
    pub received: u64,
    mismatched: u64,
}

impl FifoCheck {
    #[inline]
    pub fn observe(&mut self, got: u64, pay: &Payloads) {
        self.mismatched += u64::from(got != pay.value(self.received));
        self.received += 1;
    }

    /// Failed messages, once `sent` messages were accepted: values out
    /// of place, plus messages lost or duplicated.
    pub fn failed(&self, sent: u64) -> u64 {
        self.mismatched + self.received.abs_diff(sent)
    }
}

/// Exactly-once check for `pipeline`, where sharding promises per-shard
/// FIFO only: a bitmap over sequence numbers.
#[derive(Default)]
pub struct OnceCheck {
    bits: Vec<u64>,
    pub received: u64,
    bad: u64,
}

impl OnceCheck {
    /// Record delivered value `got`; returns its sequence number.
    #[inline]
    pub fn observe(&mut self, got: u64, pay: &Payloads) -> u64 {
        let seq = got >> 8;
        self.received += 1;
        if got != pay.tagged(seq) {
            self.bad += 1;
            return seq;
        }
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & (1 << bit) != 0 {
            self.bad += 1; // duplicate
        }
        self.bits[word] |= 1 << bit;
        seq
    }

    /// Failed messages, once `sent` messages (sequence numbers
    /// `0..sent`) were accepted: corrupted or duplicated deliveries,
    /// deliveries of messages never sent, and messages never delivered.
    pub fn failed(&self, sent: u64) -> u64 {
        let mut delivered = 0u64;
        let mut unsent = 0u64;
        for (w, &word) in self.bits.iter().enumerate() {
            for bit in 0..64 {
                if word & (1 << bit) != 0 {
                    if (w as u64) * 64 + bit < sent {
                        delivered += 1;
                    } else {
                        unsent += 1;
                    }
                }
            }
        }
        self.bad + unsent + (sent - delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_repeat_and_follow_the_seed() {
        let a = Payloads::new(7);
        assert_eq!(a.value(5), Payloads::new(7).value(5));
        assert_eq!(a.value(5), a.value(5 + TABLE as u64));
        let differs = (0..64).any(|i| a.value(i) != Payloads::new(8).value(i));
        assert!(differs, "another seed gives another sequence");
        let d = a.distinct();
        assert!(d > 3 && d <= POOL, "{d} distinct values");
    }

    #[test]
    fn fifo_check_counts_mismatches_losses_and_duplicates() {
        let p = Payloads::new(1);
        let mut ok = FifoCheck::default();
        (0..100).for_each(|i| ok.observe(p.value(i), &p));
        assert_eq!(ok.failed(100), 0);
        assert_eq!(ok.failed(103), 3, "three never arrived");
        assert_eq!(ok.failed(98), 2, "two more than were sent");
        let mut swapped = FifoCheck::default();
        let order = [0u64, 1, 3, 2, 4];
        let distinct = p.value(2) != p.value(3);
        order.iter().for_each(|&i| swapped.observe(p.value(i), &p));
        assert_eq!(swapped.failed(5), if distinct { 2 } else { 0 });
    }

    #[test]
    fn once_check_finds_duplicates_gaps_and_strangers() {
        let p = Payloads::new(3);
        let mut c = OnceCheck::default();
        for seq in [2u64, 0, 1, 3] {
            assert_eq!(c.observe(p.tagged(seq), &p), seq);
        }
        assert_eq!(c.failed(4), 0, "any order is fine");
        assert_eq!(c.failed(6), 2, "4 and 5 missing");
        c.observe(p.tagged(1), &p);
        assert_eq!(c.failed(4), 1, "duplicate");
        c.observe(p.tagged(9), &p);
        assert_eq!(c.failed(4), 2, "never sent");
        c.observe(p.tagged(0) ^ 1, &p);
        assert_eq!(c.failed(4), 3, "corrupted tag");
    }
}
