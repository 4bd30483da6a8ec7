//! Per-cycle data-port arbitration (paper §4.2, optimisation (2)).
//!
//! The RTOSUnit shares a single memory port with the processor. The
//! processor always has priority; the unit only makes progress in
//! dead/idle cycles. The [`Arbiter`] keeps the bookkeeping honest and
//! gathers occupancy statistics used by the ablation benches.

use rvsim_snapshot::{self as snap, Json, SnapError};

/// Who may use the shared data port in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortClient {
    /// The processor core (always wins arbitration).
    Core,
    /// The RTOSUnit FSMs (store/restore/preload).
    Unit,
}

/// Single-port arbiter with fixed core-priority.
///
/// Usage per simulated cycle:
/// 1. the core model calls [`Arbiter::core_request`] if it needs the port,
/// 2. the unit calls [`Arbiter::unit_try_acquire`] — granted only when the
///    core did not claim the cycle,
/// 3. the system calls [`Arbiter::end_cycle`].
///
/// ```
/// use rvsim_mem::{Arbiter, PortClient};
/// let mut arb = Arbiter::new();
/// arb.core_request();
/// assert!(!arb.unit_try_acquire());
/// arb.end_cycle();
/// assert!(arb.unit_try_acquire());
/// assert_eq!(arb.grant(), Some(PortClient::Unit));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Arbiter {
    grant: Option<PortClient>,
    cycles: u64,
    core_cycles: u64,
    unit_cycles: u64,
}

impl Arbiter {
    /// Creates an idle arbiter.
    pub fn new() -> Arbiter {
        Arbiter::default()
    }

    /// Claims the current cycle for the core.
    ///
    /// # Panics
    ///
    /// Panics if the unit already holds the grant this cycle — the system
    /// must always offer the cycle to the core first.
    #[inline]
    pub fn core_request(&mut self) {
        assert_ne!(
            self.grant,
            Some(PortClient::Unit),
            "core requested the port after it was granted to the unit"
        );
        self.grant = Some(PortClient::Core);
    }

    /// Attempts to claim the current cycle for the unit; succeeds only when
    /// the core left the cycle idle.
    #[inline]
    pub fn unit_try_acquire(&mut self) -> bool {
        if self.grant.is_none() {
            self.grant = Some(PortClient::Unit);
            true
        } else {
            self.grant == Some(PortClient::Unit)
        }
    }

    /// Current grant holder, if any.
    #[inline]
    pub fn grant(&self) -> Option<PortClient> {
        self.grant
    }

    /// Finishes the cycle and updates occupancy statistics.
    #[inline]
    pub fn end_cycle(&mut self) {
        self.cycles += 1;
        match self.grant {
            Some(PortClient::Core) => self.core_cycles += 1,
            Some(PortClient::Unit) => self.unit_cycles += 1,
            None => {}
        }
        self.grant = None;
    }

    /// Accounts for `n` consecutive cycles in which neither client touched
    /// the port — the bulk equivalent of `n` grant-free [`end_cycle`]
    /// calls, used by batched execution to skip quiescent stretches.
    ///
    /// # Panics
    ///
    /// Panics if a grant is open: the current cycle must be closed with
    /// [`end_cycle`] before idle cycles can be skipped.
    ///
    /// [`end_cycle`]: Self::end_cycle
    #[inline]
    pub fn skip_idle_cycles(&mut self, n: u64) {
        assert_eq!(self.grant, None, "skip_idle_cycles with an open grant");
        self.cycles += n;
    }

    /// The bulk port grant's accounting: the equivalent of `cycles`
    /// [`end_cycle`] calls, each but the first preceded by the grant of
    /// its cycle, when the unit held `unit` of the `cycles` cycles after
    /// the current one — the last of them included when `holds_last`,
    /// whose grant then stays open as per-cycle grants leave it.
    ///
    /// `unit` must not exceed `cycles`, and `holds_last` needs a unit
    /// cycle.
    ///
    /// [`end_cycle`]: Self::end_cycle
    #[inline]
    pub fn end_cycles_granting_unit(&mut self, cycles: u64, unit: u64, holds_last: bool) {
        debug_assert!(
            unit <= cycles && (!holds_last || unit > 0),
            "{unit} unit grants over {cycles} cycles (last held: {holds_last})"
        );
        if cycles == 0 {
            return;
        }
        self.end_cycle();
        self.cycles += cycles - 1;
        self.unit_cycles += unit - u64::from(holds_last);
        if holds_last {
            self.grant = Some(PortClient::Unit);
        }
    }

    /// `(total, core, unit)` cycle counts since construction.
    pub fn occupancy(&self) -> (u64, u64, u64) {
        (self.cycles, self.core_cycles, self.unit_cycles)
    }

    /// Fraction of cycles in which the port was idle (neither client).
    pub fn idle_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        1.0 - (self.core_cycles + self.unit_cycles) as f64 / self.cycles as f64
    }

    /// Serializes occupancy counters and the (normally `None` between
    /// cycles) open grant for a machine-state snapshot.
    pub fn to_snap(&self) -> Json {
        Json::object()
            .with(
                "grant",
                match self.grant {
                    None => "none",
                    Some(PortClient::Core) => "core",
                    Some(PortClient::Unit) => "unit",
                },
            )
            .with("cycles", self.cycles)
            .with("core_cycles", self.core_cycles)
            .with("unit_cycles", self.unit_cycles)
    }

    /// Rebuilds an arbiter from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on missing fields or an unknown grant holder.
    pub fn from_snap(value: &Json) -> Result<Arbiter, SnapError> {
        let grant = match snap::get_str(value, "grant")? {
            "none" => None,
            "core" => Some(PortClient::Core),
            "unit" => Some(PortClient::Unit),
            other => return Err(SnapError::new(format!("arbiter: unknown grant `{other}`"))),
        };
        Ok(Arbiter {
            grant,
            cycles: snap::get_u64(value, "cycles")?,
            core_cycles: snap::get_u64(value, "core_cycles")?,
            unit_cycles: snap::get_u64(value, "unit_cycles")?,
        })
    }
}

/// Per-master statistics of a [`BusArbiter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusMasterStats {
    /// Transactions granted to this master.
    pub grants: u64,
    /// Total cycles this master spent waiting for the bus.
    pub wait_cycles: u64,
    /// Longest single wait, in cycles.
    pub max_wait: u64,
}

/// Multi-master shared-bus arbiter for the SMP composition: N harts'
/// memory ports funnel into one backing store.
///
/// Timing-only model. Each hart calls [`acquire`](Self::acquire) at the
/// simulated time its access issues; the arbiter serves transactions in
/// **arrival order** (FIFO), with the bus parked on the last owner so a
/// lone master never waits. Because every master has at most one
/// transaction outstanding (harts stall on their own accesses), arrival
/// order gives a hard fairness bound: a request waits behind at most one
/// in-flight transaction per *other* master, i.e. no master ever waits
/// more than `(N - 1) × max_beats` cycles.
///
/// ```
/// use rvsim_mem::BusArbiter;
/// let mut bus = BusArbiter::new(2);
/// assert_eq!(bus.acquire(0, 100, 4), 0); // idle bus: immediate grant
/// assert_eq!(bus.acquire(1, 101, 4), 3); // busy until 104
/// assert_eq!(bus.acquire(0, 120, 1), 0); // long idle: no wait
/// ```
#[derive(Debug, Clone)]
pub struct BusArbiter {
    free_at: u64,
    owner: Option<usize>,
    /// Time of the latest request, kept to check the arrival-order
    /// contract of [`acquire`](Self::acquire). A check, not bus state:
    /// snapshots leave it out and a restored bus checks from its restore
    /// on.
    last_request: u64,
    stats: Vec<BusMasterStats>,
}

impl BusArbiter {
    /// Creates an idle bus shared by `masters` harts.
    pub fn new(masters: usize) -> BusArbiter {
        BusArbiter {
            free_at: 0,
            owner: None,
            last_request: 0,
            stats: vec![BusMasterStats::default(); masters],
        }
    }

    /// Requests a `beats`-cycle transaction for `master` at time `now`,
    /// returning the wait (in cycles) before the grant. `now` values must
    /// be non-decreasing across calls — the simulation issues requests in
    /// arrival order.
    ///
    /// The bus is *parked*: a master that already owns the bus re-acquires
    /// it without waiting, so a single master always sees zero wait.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previous request's: the
    /// simulation must offer requests in time order, or a later request
    /// would have been served first.
    pub fn acquire(&mut self, master: usize, now: u64, beats: u32) -> u64 {
        assert!(
            now >= self.last_request,
            "bus request at cycle {now} after one at cycle {}",
            self.last_request
        );
        self.last_request = now;
        let wait = if self.owner == Some(master) {
            0
        } else {
            self.free_at.saturating_sub(now)
        };
        let start = now + wait;
        self.free_at = self.free_at.max(start) + u64::from(beats);
        self.owner = Some(master);
        let s = &mut self.stats[master];
        s.grants += 1;
        s.wait_cycles += wait;
        s.max_wait = s.max_wait.max(wait);
        wait
    }

    /// Statistics for one master.
    pub fn master_stats(&self, master: usize) -> BusMasterStats {
        self.stats[master]
    }

    /// Serializes the bus-timing state and per-master statistics (one
    /// flat `[grants, wait_cycles, max_wait, ...]` array) for a
    /// machine-state snapshot. The master count is the composition's.
    pub fn to_snap(&self) -> Json {
        let stats = self
            .stats
            .iter()
            .map(|s| [s.grants, s.wait_cycles, s.max_wait]);
        Json::object()
            .with("free_at", self.free_at)
            .with(
                "owner",
                match self.owner {
                    // Owner is a master index; -1 marks "unparked".
                    None => Json::Int(-1),
                    Some(m) => Json::UInt(m as u64),
                },
            )
            .with("stats", snap::rows_to_json(stats))
    }

    /// Rebuilds a bus of `masters` masters — the caller's count — from
    /// [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on missing fields, an owner that is not one of the masters,
    /// or a stats array that is not one row per master.
    pub fn from_snap(value: &Json, masters: usize) -> Result<BusArbiter, SnapError> {
        let owner = match snap::field(value, "owner")? {
            Json::Int(-1) => None,
            j => Some(
                j.as_u64()
                    .and_then(|m| usize::try_from(m).ok())
                    .filter(|&m| m < masters)
                    .ok_or_else(|| SnapError::new("bus: owner out of range"))?,
            ),
        };
        let rows = snap::rows_from_json::<3>(snap::field(value, "stats")?, "bus stats")?;
        if rows.len() != masters {
            return Err(SnapError::new(format!(
                "bus: {} stat rows for {masters} masters",
                rows.len()
            )));
        }
        Ok(BusArbiter {
            free_at: snap::get_u64(value, "free_at")?,
            owner,
            last_request: 0,
            stats: rows
                .into_iter()
                .map(|[grants, wait_cycles, max_wait]| BusMasterStats {
                    grants,
                    wait_cycles,
                    max_wait,
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_has_priority() {
        let mut arb = Arbiter::new();
        arb.core_request();
        assert!(!arb.unit_try_acquire());
        assert_eq!(arb.grant(), Some(PortClient::Core));
        arb.end_cycle();
        assert_eq!(arb.grant(), None);
    }

    #[test]
    fn unit_steals_idle_cycles() {
        let mut arb = Arbiter::new();
        assert!(arb.unit_try_acquire());
        // Idempotent within the cycle.
        assert!(arb.unit_try_acquire());
        arb.end_cycle();
        assert_eq!(arb.occupancy(), (1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "after it was granted")]
    fn core_after_unit_is_a_bug() {
        let mut arb = Arbiter::new();
        arb.unit_try_acquire();
        arb.core_request();
    }

    #[test]
    fn skipped_idle_cycles_count_toward_occupancy() {
        let mut arb = Arbiter::new();
        arb.core_request();
        arb.end_cycle();
        arb.skip_idle_cycles(3);
        assert_eq!(arb.occupancy(), (4, 1, 0));
        assert!((arb.idle_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn bulk_unit_grants_account_as_per_cycle_grants_do() {
        // Over 6 cycles after a core-held one, the unit holds cycles 3-6
        // (the last open) or 2-4 (all closed).
        for (granted, holds_last) in [([3, 4, 5, 6].as_slice(), true), (&[2, 3, 4], false)] {
            let mut per_cycle = Arbiter::new();
            per_cycle.core_request();
            for c in 1..=6 {
                per_cycle.end_cycle();
                if granted.contains(&c) {
                    assert!(per_cycle.unit_try_acquire());
                }
            }
            let mut bulk = Arbiter::new();
            bulk.core_request();
            bulk.end_cycles_granting_unit(6, granted.len() as u64, holds_last);
            assert_eq!(bulk.occupancy(), per_cycle.occupancy());
            assert_eq!(bulk.grant(), per_cycle.grant());
        }
    }

    #[test]
    fn idle_fraction_counts_unused_cycles() {
        let mut arb = Arbiter::new();
        for i in 0..10 {
            if i % 2 == 0 {
                arb.core_request();
            }
            arb.end_cycle();
        }
        assert!((arb.idle_fraction() - 0.5).abs() < 1e-9);
    }

    /// Drives `n` masters that each re-issue a `beats`-cycle transaction
    /// the moment their previous one completes (≤ 1 outstanding each,
    /// like a stalling hart), for `horizon` cycles.
    fn pounding_masters(n: usize, beats: u32, horizon: u64) -> BusArbiter {
        let mut bus = BusArbiter::new(n);
        let mut ready = vec![0u64; n];
        for t in 0..horizon {
            for (m, r) in ready.iter_mut().enumerate() {
                if *r <= t {
                    let wait = bus.acquire(m, t, beats);
                    *r = t + wait + u64::from(beats);
                }
            }
        }
        bus
    }

    #[test]
    fn lone_master_never_waits() {
        let mut bus = BusArbiter::new(1);
        // Back-to-back, gapped, and bursty issue patterns.
        for (now, beats) in [(0, 4), (4, 4), (5, 1), (100, 8), (101, 1)] {
            assert_eq!(bus.acquire(0, now, beats), 0, "at cycle {now}");
        }
        let s = bus.master_stats(0);
        assert_eq!((s.grants, s.wait_cycles, s.max_wait), (5, 0, 0));
    }

    #[test]
    fn two_contending_masters_stay_within_the_arrival_order_bound() {
        let beats = 4u32;
        let bus = pounding_masters(2, beats, 10_000);
        for m in 0..2 {
            let s = bus.master_stats(m);
            assert!(s.grants > 1_000, "master {m}: only {} grants", s.grants);
            assert!(
                s.max_wait <= u64::from(beats),
                "master {m} waited {} > (N-1)×beats = {beats}",
                s.max_wait
            );
        }
        // Saturated symmetric masters share the bandwidth evenly.
        let g0 = bus.master_stats(0).grants as i64;
        let g1 = bus.master_stats(1).grants as i64;
        assert!((g0 - g1).abs() <= 1, "grants diverged: {g0} vs {g1}");
    }

    #[test]
    fn four_contending_masters_stay_within_the_arrival_order_bound() {
        let beats = 4u32;
        let bus = pounding_masters(4, beats, 10_000);
        let bound = u64::from(beats) * 3;
        let grants: Vec<u64> = (0..4).map(|m| bus.master_stats(m).grants).collect();
        for m in 0..4 {
            let s = bus.master_stats(m);
            assert!(s.grants > 500, "master {m}: only {} grants", s.grants);
            assert!(
                s.max_wait <= bound,
                "master {m} waited {} > (N-1)×beats = {bound}",
                s.max_wait
            );
        }
        let (min, max) = (grants.iter().min().unwrap(), grants.iter().max().unwrap());
        assert!(max - min <= 1, "grants diverged: {grants:?}");
    }

    #[test]
    #[should_panic(expected = "after one at cycle")]
    fn a_request_earlier_than_the_last_is_a_bug() {
        let mut bus = BusArbiter::new(2);
        bus.acquire(0, 100, 4);
        bus.acquire(1, 100, 4); // the same cycle is in order
        bus.acquire(1, 99, 1);
    }

    #[test]
    fn sporadic_master_is_not_starved_by_a_hammering_one() {
        let mut bus = BusArbiter::new(2);
        let mut hammer_ready = 0u64;
        for t in 0..1_000u64 {
            if hammer_ready <= t {
                let wait = bus.acquire(0, t, 1);
                hammer_ready = t + wait + 1;
            }
            if t % 10 == 5 {
                bus.acquire(1, t, 1);
            }
        }
        let s = bus.master_stats(1);
        assert_eq!(s.grants, 100);
        assert!(s.max_wait <= 1, "sporadic master starved: {}", s.max_wait);
    }
}
