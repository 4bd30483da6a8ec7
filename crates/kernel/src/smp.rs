//! SMP kernel composition: one `freertos-lite` image per hart, with
//! placement-time task affinity and IPI-driven cross-hart wakeups.
//!
//! The SMP platform keeps DMEM banks private and shares only the bus
//! *timing* (see `rtosunit::smp`), so TCBs and stacks cannot move between
//! harts at runtime. The kernel therefore follows the partitioned-
//! scheduler model, like FreeRTOS-SMP with `configTASK_AFFINITY` pinned:
//! each task is assigned to one hart at build time, chosen from its
//! affinity mask by a least-loaded placement pass, and every hart runs
//! its own ready lists, idle task and ISR. Cross-hart synchronisation
//! travels as IPIs: [`TaskCtx::ipi_give`](crate::TaskCtx::ipi_give) rings
//! the target's doorbell, and the target ISR's drain loop performs the
//! give against its local semaphore — the scheduler oracle checks that no
//! such wakeup is ever lost.

use crate::builder::{GuestImage, KernelBuilder, KernelError, TaskCtx};
use rtosunit::{Preset, SmpSystem};

type TaskBody = Box<dyn FnOnce(&mut TaskCtx)>;

struct SmpTaskSpec {
    name: String,
    prio: u8,
    affinity: u32,
    body: TaskBody,
}

/// Builds one [`GuestImage`] per hart from a single task/semaphore
/// declaration set.
///
/// Semaphores are declared once and materialise on *every* hart at the
/// same index, so an IPI code (`index + 1`) resolves to the matching
/// control block wherever it lands.
///
/// # Example
///
/// ```
/// use freertos_lite::SmpKernelBuilder;
/// use rtosunit::{Preset, SmpSystem};
/// use rvsim_cores::CoreKind;
///
/// let mut b = SmpKernelBuilder::new(Preset::Vanilla, 2);
/// b.semaphore("inbox", 0);
/// b.task_on("rx", 3, 0b01, |t| {
///     t.sem_take("inbox");
///     t.halt();
/// });
/// b.task_on("tx", 3, 0b10, |t| {
///     t.busy_work(50);
///     t.ipi_give(0, "inbox");
///     t.delay(5); // throttle: an unthrottled IPI flood can livelock the peer
/// });
/// let image = b.build().expect("SMP kernel builds");
/// let mut smp = SmpSystem::new(CoreKind::Cv32e40p, Preset::Vanilla, 2);
/// image.install(&mut smp);
/// smp.run(200_000);
/// assert!(smp.halted()); // the IPI woke `rx`
/// ```
pub struct SmpKernelBuilder {
    preset: Preset,
    harts: usize,
    tick_period: u32,
    probe: bool,
    sems: Vec<(String, u32)>,
    tasks: Vec<SmpTaskSpec>,
}

impl SmpKernelBuilder {
    /// Creates a builder for `harts` harts running `preset`.
    pub fn new(preset: Preset, harts: usize) -> SmpKernelBuilder {
        assert!(harts >= 1, "an SMP kernel needs at least one hart");
        SmpKernelBuilder {
            preset,
            harts,
            tick_period: rtosunit::system::DEFAULT_TICK_PERIOD,
            probe: false,
            sems: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Sets the timer-tick period (cycles) used by every hart.
    pub fn tick_period(&mut self, cycles: u32) -> &mut Self {
        self.tick_period = cycles;
        self
    }

    /// Instruments every hart's kernel with scheduler-oracle probes (see
    /// [`KernelBuilder::probe`]).
    pub fn probe(&mut self, on: bool) -> &mut Self {
        self.probe = on;
        self
    }

    /// Declares a counting semaphore, present on every hart at the same
    /// index.
    pub fn semaphore(&mut self, name: &str, initial: u32) -> &mut Self {
        self.sems.push((name.to_string(), initial));
        self
    }

    /// Declares a task runnable on any hart (affinity mask 0 = don't
    /// care); placement picks the least-loaded hart.
    pub fn task(
        &mut self,
        name: &str,
        prio: u8,
        body: impl FnOnce(&mut TaskCtx) + 'static,
    ) -> &mut Self {
        self.task_on(name, prio, 0, body)
    }

    /// Declares a task with an affinity mask: bit `h` set allows hart
    /// `h`. Mask 0 means any hart.
    pub fn task_on(
        &mut self,
        name: &str,
        prio: u8,
        affinity: u32,
        body: impl FnOnce(&mut TaskCtx) + 'static,
    ) -> &mut Self {
        self.tasks.push(SmpTaskSpec {
            name: name.to_string(),
            prio,
            affinity,
            body: Box::new(body),
        });
        self
    }

    /// Places every task and assembles one kernel image per hart.
    ///
    /// Placement walks tasks in declaration order and pins each to the
    /// allowed hart with the fewest tasks so far (lowest hart id on
    /// ties), so affinity-free workloads spread evenly.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadAffinity`] when a mask selects no hart of this
    /// system, plus everything [`KernelBuilder::build`] reports.
    pub fn build(self) -> Result<SmpImage, KernelError> {
        let all: u32 = if self.harts >= 32 {
            u32::MAX
        } else {
            (1u32 << self.harts) - 1
        };
        let mut loads = vec![0usize; self.harts];
        let mut placement: Vec<(String, usize)> = Vec::with_capacity(self.tasks.len());
        let mut per_hart: Vec<Vec<SmpTaskSpec>> = (0..self.harts).map(|_| Vec::new()).collect();
        for t in self.tasks {
            let allowed = if t.affinity == 0 {
                all
            } else {
                t.affinity & all
            };
            if allowed == 0 {
                return Err(KernelError::BadAffinity(t.name, t.affinity));
            }
            let hart = (0..self.harts)
                .filter(|&h| allowed & (1 << h) != 0)
                .min_by_key(|&h| loads[h])
                .expect("allowed mask is non-empty");
            loads[hart] += 1;
            placement.push((t.name.clone(), hart));
            per_hart[hart].push(t);
        }

        let mut harts = Vec::with_capacity(self.harts);
        for tasks in per_hart {
            let mut k = KernelBuilder::new(self.preset);
            k.tick_period(self.tick_period).probe(self.probe).ipi(true);
            for (name, initial) in &self.sems {
                k.semaphore(name, *initial);
            }
            if tasks.is_empty() {
                // Every image needs one user task; a hart left without
                // work parks like a second idle task.
                k.task("parked", 1, |t| {
                    t.asm_mut().wfi();
                });
            }
            for t in tasks {
                k.task(&t.name, t.prio, t.body);
            }
            harts.push(k.build()?);
        }
        Ok(SmpImage { harts, placement })
    }
}

/// One bootable image per hart, plus where each declared task landed.
#[derive(Debug, Clone)]
pub struct SmpImage {
    /// Per-hart guest images, index = hart id.
    pub harts: Vec<GuestImage>,
    /// `(task name, hart)` in declaration order (idle/parked tasks are
    /// per-image implementation details and not listed).
    pub placement: Vec<(String, usize)>,
}

impl SmpImage {
    /// Installs every hart's image into the matching hart of `smp`.
    ///
    /// # Panics
    ///
    /// Panics when the hart counts differ or a preset mismatches.
    pub fn install(&self, smp: &mut SmpSystem) {
        assert_eq!(
            smp.harts(),
            self.harts.len(),
            "image built for {} harts, system has {}",
            self.harts.len(),
            smp.harts()
        );
        for (h, image) in self.harts.iter().enumerate() {
            image.install(smp.hart_mut(h));
        }
    }

    /// The hart the named task was placed on.
    pub fn hart_of(&self, task: &str) -> Option<usize> {
        self.placement
            .iter()
            .find(|(n, _)| n == task)
            .map(|&(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtosunit::system::RunExit;
    use rvsim_cores::CoreKind;
    use rvsim_isa::csr;

    #[test]
    fn affinity_free_tasks_spread_evenly() {
        let mut b = SmpKernelBuilder::new(Preset::Vanilla, 4);
        for i in 0..8 {
            b.task(&format!("t{i}"), 1, |t| t.yield_now());
        }
        let img = b.build().expect("builds");
        for h in 0..4 {
            let on_h = img.placement.iter().filter(|&&(_, p)| p == h).count();
            assert_eq!(on_h, 2, "hart {h} should carry exactly 2 of 8 tasks");
        }
    }

    #[test]
    fn affinity_masks_pin_and_validate() {
        let mut b = SmpKernelBuilder::new(Preset::Vanilla, 2);
        b.task_on("pinned", 1, 0b10, |t| t.yield_now());
        let img = b.build().expect("builds");
        assert_eq!(img.hart_of("pinned"), Some(1));

        let mut bad = SmpKernelBuilder::new(Preset::Vanilla, 2);
        bad.task_on("oops", 1, 0b100, |t| t.yield_now());
        assert!(matches!(
            bad.build(),
            Err(KernelError::BadAffinity(_, 0b100))
        ));
    }

    #[test]
    fn cross_hart_ipi_wakes_a_blocked_task() {
        let mut b = SmpKernelBuilder::new(Preset::Vanilla, 2);
        b.semaphore("inbox", 0);
        b.task_on("rx", 3, 0b01, |t| {
            t.sem_take("inbox");
            t.halt();
        });
        b.task_on("tx", 3, 0b10, |t| {
            t.busy_work(50);
            t.ipi_give(0, "inbox");
            // Throttle between sends: task bodies loop forever, and an
            // unthrottled IPI flood saturates the receiver's ISR (each
            // episode outlasts the send period), starving the woken task
            // of cycles — exactly the livelock real cores exhibit.
            t.delay(5);
        });
        let img = b.build().expect("builds");
        assert_eq!(img.hart_of("rx"), Some(0));
        assert_eq!(img.hart_of("tx"), Some(1));

        let mut smp = SmpSystem::new(CoreKind::Cv32e40p, Preset::Vanilla, 2);
        img.install(&mut smp);
        assert_eq!(
            smp.run(400_000),
            RunExit::Halted,
            "rx never woke: the IPI give was lost"
        );
        let shared = smp.shared();
        let shared = shared.borrow();
        let (sent, recvd) = shared.ipi_counts(0);
        assert!(sent >= 1, "tx sent at least one IPI");
        assert_eq!(
            sent,
            recvd + shared.mailbox_depth(0) as u64,
            "IPI conservation: every send is drained or still queued"
        );
        // The wakeup arrived through a software-interrupt episode.
        assert!(smp
            .hart(0)
            .records()
            .iter()
            .any(|r| r.cause == csr::CAUSE_SOFTWARE));
    }

    #[test]
    fn every_preset_builds_a_two_hart_image() {
        for p in Preset::LATENCY_SET {
            let mut b = SmpKernelBuilder::new(p, 2);
            b.semaphore("s", 0);
            b.task_on("a", 2, 0b01, |t| {
                t.sem_take("s");
                t.yield_now();
            });
            b.task_on("b", 2, 0b10, |t| {
                t.ipi_give(0, "s");
                t.delay(1);
            });
            let img = b.build().unwrap_or_else(|e| panic!("{p}: {e}"));
            assert_eq!(img.harts.len(), 2);
        }
    }
}
