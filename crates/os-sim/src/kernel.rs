//! The node kernel: TinyOS-like services instrumented with Quanto.
//!
//! The kernel owns everything on one node except the application:
//!
//! * the node-local event queue and the CPU work cursor (the simulated
//!   passage of time while handlers and tasks execute),
//! * the ground-truth energy accumulator, the iCount meter and the
//!   oscilloscope trace,
//! * the Quanto runtime, the tracked devices and the proxy activities for
//!   each interrupt source, and
//! * the OS services the paper instruments: tasks, virtual timers, the SPI
//!   arbiter, the Active Message layer and the device drivers.
//!
//! The application sees the kernel through the `OsHandle` alias (just
//! `&mut Kernel`): the public methods on this type are the "system calls" of
//! the simulated OS.

use crate::arbiter::{Arbiter, BusClient, GrantOutcome};
use crate::config::{NodeConfig, SpiMode};
use crate::drivers::{FlashState, LedBank, RadioPower, RadioState, SensorState, TxPhase};
use crate::event::{FlashOp, LocalQueue, NodeEvent, SensorKind, TaskId, TimerId};
use crate::packet::{AmPacket, AM_BROADCAST};
use crate::sched::{PostedTask, TaskQueue};
use crate::timer::TimerTable;
use crate::world::Emission;
use energy_meter::{CurrentTrace, EnergyMeter, ICountMeter};
use hw_model::catalog::{
    self, cpu_state, led_state, radio_control_state, radio_regulator_state, radio_rx_state,
    radio_tx_state, HydrowatchIds,
};
use hw_model::{Catalog, EnergyAccumulator, PowerModel, SimDuration, SimTime, SinkId, StateIndex};
use quanto_core::{
    ActivityLabel, CostStats, DeviceId, LogEntry, NodeId, QuantoRuntime, RuntimeConfig, Stamp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Handle through which applications access OS services.
pub type OsHandle = Kernel;

/// Interrupt sources with statically-assigned proxy activities (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqSource {
    /// The hardware timer behind the virtual timers (`int_TIMERB0`).
    TimerB0,
    /// The SFD / radio capture timer (`int_TIMERB1`).
    TimerB1,
    /// The DCO calibration timer (`int_TIMERA1`).
    TimerA1,
    /// The SPI/USART receive interrupt (`int_UART0RX`).
    Spi,
    /// The DMA completion interrupt (`int_DACDMA`).
    Dma,
    /// The radio packet-reception proxy (`pxy_RX`).
    RadioRx,
    /// Sensor conversion-complete interrupt.
    Sensor,
    /// Flash operation-complete interrupt.
    Flash,
}

/// Final state of one node after a run, as collected by the simulator.
#[derive(Debug, Clone)]
pub struct NodeRunOutput {
    /// Every surviving Quanto log entry.  Empty when a log sink was attached
    /// ([`Kernel::set_log_sink`]) — the entries streamed through the sink
    /// instead of being collected here.
    pub log: Vec<LogEntry>,
    /// The (time, iCount) stamp at the end of the observation window, used to
    /// close the last interval during analysis.
    pub final_stamp: Stamp,
    /// The ground-truth current trace (the simulated oscilloscope probe).
    pub trace: CurrentTrace,
    /// Ground-truth energy per sink, known only to the simulator.
    pub ground_truth: hw_model::power::EnergyBreakdown,
    /// Radio statistics.
    pub radio_stats: crate::drivers::RadioStats,
    /// Quanto's own overhead statistics.
    pub cost_stats: CostStats,
    /// Number of tasks posted / run.
    pub tasks_posted: u64,
    /// How many entries the logger dropped.
    pub log_dropped: u64,
}

/// The per-node kernel.
pub struct Kernel {
    config: NodeConfig,
    catalog: Arc<Catalog>,
    ids: HydrowatchIds,

    // Time and CPU execution.
    cursor: SimTime,
    busy_until: SimTime,
    cpu_active: bool,
    queue: LocalQueue,

    // Ground-truth energy.
    accumulator: EnergyAccumulator,
    meter: ICountMeter,
    trace: CurrentTrace,

    // Quanto.
    quanto: QuantoRuntime,
    dev_cpu: DeviceId,
    dev_leds: [DeviceId; 3],
    dev_radio: DeviceId,
    dev_flash: DeviceId,
    dev_sensor: DeviceId,
    act_vtimer: ActivityLabel,
    act_idle: ActivityLabel,
    pxy_timer_b0: ActivityLabel,
    pxy_timer_b1: ActivityLabel,
    pxy_timer_a1: ActivityLabel,
    pxy_spi: ActivityLabel,
    pxy_dma: ActivityLabel,
    pxy_rx: ActivityLabel,
    pxy_sensor: ActivityLabel,
    pxy_flash: ActivityLabel,

    // OS structures.
    tasks: TaskQueue,
    timers: TimerTable,
    spi_arbiter: Arbiter,

    // Drivers.
    leds: LedBank,
    radio: RadioState,
    flash: FlashState,
    sensor: SensorState,

    // Outbox and misc.
    emissions: Vec<Emission>,
    rng: StdRng,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("node", &self.config.node_id)
            .field("cursor", &self.cursor)
            .field("cpu_active", &self.cpu_active)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

thread_local! {
    /// The Hydrowatch catalog is configuration-independent (the builder takes
    /// no arguments), so every kernel on a thread shares one immutable copy
    /// instead of rebuilding the state/sink tables per node.
    static HYDROWATCH: (Arc<Catalog>, HydrowatchIds) = {
        let (cat, ids) = catalog::hydrowatch();
        (Arc::new(cat), ids)
    };
}

impl Kernel {
    /// Creates a kernel for the given configuration.
    pub fn new(config: NodeConfig) -> Self {
        Kernel::new_with_recycled(config, None)
    }

    /// Creates a kernel, adopting a recycled log-buffer allocation from a
    /// workspace pool (see [`quanto_core::RamLogger::adopt_buffer`]).
    pub fn new_with_recycled(config: NodeConfig, recycled_log: Option<Vec<LogEntry>>) -> Self {
        let (catalog, ids) = HYDROWATCH.with(|c| c.clone());
        let model = Arc::new(PowerModel::new(
            catalog.clone(),
            config.supply,
            config.noise,
        ));
        let accumulator = EnergyAccumulator::new(model);
        let meter = ICountMeter::new(config.icount);

        let mut quanto = QuantoRuntime::new(
            config.node_id,
            &catalog,
            RuntimeConfig {
                log_capacity: config.log_capacity,
                overflow_policy: config.overflow_policy,
                cost_model: config.cost_model,
                mode: config.accounting,
            },
        );
        let dev_cpu = quanto.register_single_device("cpu");
        let dev_leds = [
            quanto.register_single_device("led0"),
            quanto.register_single_device("led1"),
            quanto.register_single_device("led2"),
        ];
        let dev_radio = quanto.register_single_device("radio");
        let dev_flash = quanto.register_single_device("flash");
        let dev_sensor = quanto.register_single_device("sensor");
        quanto.set_cpu_device(dev_cpu);

        let act_idle = quanto.registry().idle();
        let act_vtimer = quanto.registry_mut().define_system("VTimer");
        let pxy_timer_b0 = quanto.registry_mut().define_proxy("int_TIMERB0");
        let pxy_timer_b1 = quanto.registry_mut().define_proxy("int_TIMERB1");
        let pxy_timer_a1 = quanto.registry_mut().define_proxy("int_TIMERA1");
        let pxy_spi = quanto.registry_mut().define_proxy("int_UART0RX");
        let pxy_dma = quanto.registry_mut().define_proxy("int_DACDMA");
        let pxy_rx = quanto.registry_mut().define_proxy("pxy_RX");
        let pxy_sensor = quanto.registry_mut().define_proxy("int_SENSOR");
        let pxy_flash = quanto.registry_mut().define_proxy("int_FLASH");

        let rng = StdRng::seed_from_u64(config.seed);

        let mut kernel = Kernel {
            catalog,
            ids,
            cursor: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            cpu_active: false,
            queue: LocalQueue::new(),
            accumulator,
            meter,
            trace: CurrentTrace::new(),
            quanto,
            dev_cpu,
            dev_leds,
            dev_radio,
            dev_flash,
            dev_sensor,
            act_vtimer,
            act_idle,
            pxy_timer_b0,
            pxy_timer_b1,
            pxy_timer_a1,
            pxy_spi,
            pxy_dma,
            pxy_rx,
            pxy_sensor,
            pxy_flash,
            tasks: TaskQueue::new(),
            timers: TimerTable::new(),
            spi_arbiter: Arbiter::new(),
            leds: LedBank::new(),
            radio: RadioState::new(),
            flash: FlashState::new(),
            sensor: SensorState::new(),
            emissions: Vec::new(),
            rng,
            config,
        };
        if let Some(buf) = recycled_log {
            kernel.quanto.adopt_log_buffer(buf);
        }
        kernel.boot();
        kernel
    }

    /// Surrenders the RAM log buffer's allocation to a workspace pool.  The
    /// kernel must not record afterwards (the run is over).
    pub fn recycle_log_buffer(&mut self) -> Vec<LogEntry> {
        self.quanto.recycle_log_buffer()
    }

    fn boot(&mut self) {
        // The supply supervisor is always on; record its initial trace point.
        self.set_sink(self.ids.supervisor, StateIndex(1));
        // Record the boot draw so the oscilloscope trace starts at t = 0.
        self.trace.push(
            SimTime::ZERO,
            self.accumulator.current_power() / self.config.supply,
        );
        if self.config.dco_calibration {
            // TimerA1 fires 16 times per second from boot (Figure 15).
            self.queue
                .push(SimTime::from_micros(62_500), NodeEvent::DcoCalibration);
        }
    }

    // ------------------------------------------------------------------
    // Time, energy and Quanto plumbing (crate-internal).
    // ------------------------------------------------------------------

    /// The current (time, iCount) pair as the instrumented OS would read it.
    pub(crate) fn stamp(&mut self) -> Stamp {
        self.accumulator.advance(self.cursor);
        let reading = self.meter.read(self.accumulator.total_energy());
        Stamp::new(self.cursor, reading.counter)
    }

    /// Records a ground-truth power-state change and tells Quanto about it.
    /// The probe current is divided out only while the probe is attached;
    /// headless sweeps detach it.
    pub(crate) fn set_sink(&mut self, sink: SinkId, state: StateIndex) {
        self.accumulator.set_state(self.cursor, sink, state);
        if self.trace.is_enabled() {
            let current = self.accumulator.current_power() / self.config.supply;
            self.trace.push(self.cursor, current);
        }
        if self.config.quanto_enabled {
            let stamp = self.stamp();
            self.quanto
                .set_power_state(stamp, sink, state.as_u8() as u16);
            self.charge_quanto_overhead();
        }
    }

    /// Advances the CPU work cursor by `cycles` of execution.
    pub(crate) fn charge_cycles(&mut self, cycles: u64) {
        let us = self.config.cycles_to_micros(cycles);
        self.cursor += SimDuration::from_micros(us);
    }

    fn charge_quanto_overhead(&mut self) {
        let cycles = self.quanto.take_pending_overhead_cycles();
        if cycles > 0 {
            self.charge_cycles(cycles);
        }
    }

    /// Paints the CPU with an activity.
    pub(crate) fn cpu_activity_set(&mut self, label: ActivityLabel) {
        if !self.config.quanto_enabled {
            return;
        }
        let stamp = self.stamp();
        self.quanto.activity_set(stamp, self.dev_cpu, label);
        self.charge_quanto_overhead();
    }

    /// Binds the CPU's current (proxy) activity to a real activity.
    pub(crate) fn cpu_activity_bind(&mut self, label: ActivityLabel) {
        if !self.config.quanto_enabled {
            return;
        }
        let stamp = self.stamp();
        self.quanto.activity_bind(stamp, self.dev_cpu, label);
        self.charge_quanto_overhead();
    }

    /// Paints an arbitrary tracked device with an activity.
    pub(crate) fn device_activity_set(&mut self, dev: DeviceId, label: ActivityLabel) {
        if !self.config.quanto_enabled {
            return;
        }
        let stamp = self.stamp();
        self.quanto.activity_set(stamp, dev, label);
        self.charge_quanto_overhead();
    }

    /// Begins an event batch at `event_time`: wakes the CPU and positions the
    /// work cursor.  Returns the effective start time.
    pub(crate) fn begin_batch(&mut self, event_time: SimTime) -> SimTime {
        let start = event_time.max(self.busy_until);
        self.cursor = start;
        if !self.cpu_active {
            self.cpu_active = true;
            self.set_sink(self.ids.cpu, cpu_state::ACTIVE);
        }
        start
    }

    /// Ends the batch: returns the CPU to idle and to sleep.
    pub(crate) fn end_batch(&mut self) {
        self.cpu_activity_set(self.act_idle);
        if self.cpu_active {
            self.cpu_active = false;
            self.set_sink(self.ids.cpu, cpu_state::LPM3);
        }
        self.busy_until = self.cursor;
    }

    /// Enters an interrupt handler: the CPU temporarily takes the statically
    /// assigned proxy activity of the interrupt source.
    pub(crate) fn irq_enter(&mut self, source: IrqSource) {
        let proxy = self.proxy_for(source);
        self.cpu_activity_set(proxy);
        self.charge_cycles(self.config.handler_cycles as u64);
    }

    fn proxy_for(&self, source: IrqSource) -> ActivityLabel {
        match source {
            IrqSource::TimerB0 => self.pxy_timer_b0,
            IrqSource::TimerB1 => self.pxy_timer_b1,
            IrqSource::TimerA1 => self.pxy_timer_a1,
            IrqSource::Spi => self.pxy_spi,
            IrqSource::Dma => self.pxy_dma,
            IrqSource::RadioRx => self.pxy_rx,
            IrqSource::Sensor => self.pxy_sensor,
            IrqSource::Flash => self.pxy_flash,
        }
    }

    /// The next pending event, if any.
    pub(crate) fn peek_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next pending event.
    pub(crate) fn pop_event(&mut self) -> Option<(SimTime, NodeEvent)> {
        self.queue.pop()
    }

    /// Pushes an externally-generated event (packet arrivals from `net-sim`).
    pub(crate) fn push_event(&mut self, at: SimTime, event: NodeEvent) {
        self.queue.push(at, event);
    }

    /// The next posted task, with its activity restored on the CPU and its
    /// cost charged.
    pub(crate) fn next_task(&mut self) -> Option<PostedTask> {
        let task = self.tasks.pop()?;
        // The scheduler restores the activity saved at post time.
        self.cpu_activity_set(task.saved_activity);
        self.charge_cycles(task.cost_cycles as u64);
        Some(task)
    }

    /// Drains accumulated radio emissions (called by the coordinator).
    pub(crate) fn take_emissions(&mut self) -> Vec<Emission> {
        std::mem::take(&mut self.emissions)
    }

    // ------------------------------------------------------------------
    // Event handlers (crate-internal; called by `Node::dispatch`).
    // ------------------------------------------------------------------

    /// Handles a hardware timer interrupt for a virtual timer.  Returns the
    /// saved activity to run the application handler under, if the timer is
    /// really due.
    pub(crate) fn handle_hw_timer(&mut self, timer: TimerId) -> Option<ActivityLabel> {
        self.irq_enter(IrqSource::TimerB0);
        // The virtual timer dispatcher runs as its own system activity.
        self.cpu_activity_set(self.act_vtimer);
        self.charge_cycles(40);
        let (saved, next) = self.timers.fire(timer, self.cursor)?;
        if let Some(next) = next {
            self.queue.push(next, NodeEvent::HwTimerFired { timer });
        }
        self.cpu_activity_set(saved);
        Some(saved)
    }

    /// Post-application bookkeeping after a timer handler ran.
    pub(crate) fn finish_hw_timer(&mut self) {
        self.cpu_activity_set(self.act_vtimer);
        self.charge_cycles(20);
    }

    /// Handles the 16 Hz DCO-calibration interrupt.
    pub(crate) fn handle_dco_calibration(&mut self) {
        self.irq_enter(IrqSource::TimerA1);
        self.charge_cycles(25);
        self.queue.push(
            self.cursor + SimDuration::from_micros(62_500),
            NodeEvent::DcoCalibration,
        );
    }

    /// Handles one interrupt-mode SPI chunk of the TX FIFO load.
    pub(crate) fn handle_spi_tx_chunk(&mut self) {
        self.irq_enter(IrqSource::Spi);
        self.charge_cycles(self.config.spi_chunk_cycles as u64);
        let Some(tx) = self.radio.tx.as_mut() else {
            return;
        };
        tx.bytes_loaded = (tx.bytes_loaded + 2).min(tx.packet.wire_bytes());
        let activity = tx.activity;
        let done = tx.bytes_loaded >= tx.packet.wire_bytes();
        self.cpu_activity_bind(activity);
        if done {
            self.start_backoff();
        } else {
            let chunk = SimDuration::from_micros(
                self.config
                    .cycles_to_micros(self.config.spi_chunk_cycles as u64),
            );
            self.queue.push(self.cursor + chunk, NodeEvent::SpiTxChunk);
        }
    }

    /// Handles the DMA-completion interrupt of the TX FIFO load.
    pub(crate) fn handle_spi_tx_dma_done(&mut self) {
        self.irq_enter(IrqSource::Dma);
        let Some(tx) = self.radio.tx.as_mut() else {
            return;
        };
        tx.bytes_loaded = tx.packet.wire_bytes();
        let activity = tx.activity;
        self.cpu_activity_bind(activity);
        self.start_backoff();
    }

    fn start_backoff(&mut self) {
        if let Some(tx) = self.radio.tx.as_mut() {
            tx.phase = TxPhase::Backoff;
        }
        let (lo, hi) = self.config.backoff_us;
        let backoff = self.rng.gen_range(lo..=hi);
        self.queue.push(
            self.cursor + SimDuration::from_micros(backoff),
            NodeEvent::CsmaBackoffDone,
        );
    }

    /// Handles the end of the CSMA backoff.  `channel_busy` is the CCA result
    /// supplied by the world.  Returns `true` if the frame went on the air.
    pub(crate) fn handle_backoff_done(&mut self, channel_busy: bool) -> bool {
        self.irq_enter(IrqSource::TimerB1);
        let Some(activity) = self.radio.tx.as_ref().map(|tx| tx.activity) else {
            return false;
        };
        self.cpu_activity_bind(activity);
        if channel_busy {
            if let Some(tx) = self.radio.tx.as_mut() {
                tx.backoff_rounds += 1;
            }
            self.radio.stats.busy_backoffs += 1;
            self.start_backoff();
            return false;
        }
        let (bytes, packet) = {
            let tx = self.radio.tx.as_mut().expect("tx operation checked above");
            tx.phase = TxPhase::OnAir;
            (tx.packet.wire_bytes(), tx.packet.clone())
        };
        // The transmitter replaces the receiver for the duration of the frame.
        self.set_sink(self.ids.radio_rx, radio_rx_state::OFF);
        self.set_sink(self.ids.radio_tx, radio_tx_state::TX_0DBM);
        self.radio.power = RadioPower::Transmitting;
        let airtime = SimDuration::from_micros(self.config.airtime_us(bytes));
        let start = self.cursor;
        let end = start + airtime;
        self.queue.push(end, NodeEvent::RadioTxDone);
        self.emissions.push(Emission {
            from: self.config.node_id,
            channel: self.config.radio_channel,
            packet,
            start,
            end,
        });
        true
    }

    /// Handles the end of an over-the-air transmission.  Returns `true` so
    /// the caller can deliver `send_done` to the application.
    pub(crate) fn handle_tx_done(&mut self) -> bool {
        self.irq_enter(IrqSource::TimerB1);
        let Some(tx) = self.radio.tx.take() else {
            return false;
        };
        self.cpu_activity_bind(tx.activity);
        self.radio.stats.packets_sent += 1;
        self.set_sink(self.ids.radio_tx, radio_tx_state::OFF);
        // Listening resumes if the radio is meant to stay on: always-on mode
        // with an outstanding request, or LPL inside an open wake-up window.
        let resume_listen = if self.config.lpl.is_none() {
            self.radio.requested_on
        } else {
            self.radio.lpl_wakeup_open
        };
        if resume_listen {
            self.set_sink(self.ids.radio_rx, radio_rx_state::LISTEN);
            self.radio.power = RadioPower::Listening;
        } else {
            self.radio_sinks_off();
        }
        self.device_activity_set(self.dev_radio, self.act_idle);
        true
    }

    /// Handles a start-of-frame delimiter for an incoming packet.  Returns
    /// `true` if the radio accepted the frame.
    pub(crate) fn handle_sfd(&mut self, packet: AmPacket) -> bool {
        if !self.radio.can_hear() {
            return false;
        }
        self.irq_enter(IrqSource::TimerB1);
        // Until the packet is decoded the work belongs to the receive proxy.
        self.cpu_activity_set(self.pxy_rx);
        let sfd_time = self.cursor;
        let accepted = self.radio.begin_rx(packet, sfd_time);
        if accepted {
            if self.radio.lpl_wakeup_open {
                self.radio.lpl_got_packet = true;
            }
            match self.config.spi_mode {
                SpiMode::Interrupt => {
                    let chunk = SimDuration::from_micros(
                        self.config
                            .cycles_to_micros(self.config.spi_chunk_cycles as u64),
                    );
                    self.queue.push(self.cursor + chunk, NodeEvent::SpiRxChunk);
                }
                SpiMode::Dma => {
                    let bytes = self
                        .radio
                        .rx
                        .as_ref()
                        .map(|rx| rx.packet.wire_bytes())
                        .unwrap_or(0);
                    let dur = SimDuration::from_micros(self.config.cycles_to_micros(
                        self.config.spi_dma_cycles_per_byte as u64 * bytes as u64,
                    ));
                    self.queue.push(self.cursor + dur, NodeEvent::SpiRxDmaDone);
                }
            }
        }
        accepted
    }

    /// Handles one interrupt-mode SPI chunk of the RX FIFO download.  Returns
    /// the decoded packet when the download completes and the packet is for
    /// this node.
    pub(crate) fn handle_spi_rx_chunk(&mut self) -> Option<AmPacket> {
        self.irq_enter(IrqSource::Spi);
        self.charge_cycles(self.config.spi_chunk_cycles as u64);
        self.cpu_activity_set(self.pxy_rx);
        let rx = self.radio.rx.as_mut()?;
        rx.bytes_downloaded = (rx.bytes_downloaded + 2).min(rx.packet.wire_bytes());
        if rx.bytes_downloaded >= rx.packet.wire_bytes() {
            self.finish_rx()
        } else {
            let chunk = SimDuration::from_micros(
                self.config
                    .cycles_to_micros(self.config.spi_chunk_cycles as u64),
            );
            self.queue.push(self.cursor + chunk, NodeEvent::SpiRxChunk);
            None
        }
    }

    /// Handles the DMA-completion interrupt of the RX FIFO download.
    pub(crate) fn handle_spi_rx_dma_done(&mut self) -> Option<AmPacket> {
        self.irq_enter(IrqSource::Dma);
        self.cpu_activity_set(self.pxy_rx);
        if let Some(rx) = self.radio.rx.as_mut() {
            rx.bytes_downloaded = rx.packet.wire_bytes();
        }
        self.finish_rx()
    }

    /// Decodes the downloaded packet at the AM layer: reads the hidden
    /// activity field, binds the receive proxy to it, and filters by
    /// destination.
    fn finish_rx(&mut self) -> Option<AmPacket> {
        let rx = self.radio.rx.take()?;
        // AM decode runs as a short task.
        self.charge_cycles(self.config.task_cycles as u64);
        let packet = rx.packet;
        // The proxy activity is bound to the activity carried in the packet
        // (Section 3.3) — this is the cross-node propagation step.
        self.cpu_activity_bind(packet.activity);
        self.radio.stats.packets_received += 1;
        if self.radio.lpl_wakeup_open {
            self.radio.stats.rx_wakeups += 1;
            self.radio.lpl_wakeup_open = false;
            self.radio_sinks_off();
        }
        let me = self.config.node_id;
        if packet.dest == me || packet.dest == AM_BROADCAST {
            Some(packet)
        } else {
            None
        }
    }

    /// Handles the LPL periodic wake-up.
    pub(crate) fn handle_lpl_wakeup(&mut self) {
        let Some(lpl) = self.config.lpl else {
            return;
        };
        if !self.radio.requested_on {
            return;
        }
        self.irq_enter(IrqSource::TimerB0);
        // The VTimer activity schedules the wake-ups (Figure 14).
        self.cpu_activity_set(self.act_vtimer);
        self.charge_cycles(30);
        // Schedule the next check regardless of what this one finds.
        self.queue.push(
            self.cursor + SimDuration::from_millis(lpl.check_interval_ms),
            NodeEvent::LplWakeup,
        );
        if self.radio.power != RadioPower::Off {
            // Still busy from a previous wake-up (e.g. long false positive).
            return;
        }
        self.radio_sinks_on_listen();
        self.radio.lpl_wakeup_open = true;
        self.radio.lpl_energy_detected = false;
        self.radio.lpl_got_packet = false;
        self.queue.push(
            self.cursor + SimDuration::from_millis(lpl.sample_window_ms),
            NodeEvent::LplCcaSample,
        );
    }

    /// Handles the end of the LPL clear-channel sample window.
    pub(crate) fn handle_lpl_cca(&mut self, channel_busy: bool) {
        let Some(lpl) = self.config.lpl else {
            return;
        };
        if !self.radio.lpl_wakeup_open || self.radio.rx.is_some() {
            // A packet reception is already in progress; let it finish.
            return;
        }
        self.irq_enter(IrqSource::TimerB0);
        if channel_busy {
            // Energy detected: stay on waiting for a packet.  Until a packet
            // arrives this work has no real activity to bind to — it stays on
            // the receive proxy, exactly the unbound proxy of Figure 14.
            self.radio.lpl_energy_detected = true;
            self.cpu_activity_set(self.pxy_rx);
            self.charge_cycles(30);
            self.queue.push(
                self.cursor + SimDuration::from_millis(lpl.listen_timeout_ms),
                NodeEvent::LplTimeout,
            );
        } else {
            self.cpu_activity_set(self.act_vtimer);
            self.radio.stats.clean_wakeups += 1;
            self.radio.lpl_wakeup_open = false;
            self.radio_sinks_off();
        }
    }

    /// Handles the expiry of the post-detection listen window.
    pub(crate) fn handle_lpl_timeout(&mut self) {
        if !self.radio.lpl_wakeup_open || self.radio.rx.is_some() {
            return;
        }
        self.irq_enter(IrqSource::TimerB0);
        self.cpu_activity_set(self.pxy_rx);
        self.radio.stats.false_wakeups += 1;
        self.radio.lpl_wakeup_open = false;
        self.radio_sinks_off();
    }

    /// Handles the radio oscillator start-up completion (non-LPL `radio_on`).
    pub(crate) fn handle_radio_startup_done(&mut self) {
        self.irq_enter(IrqSource::TimerB1);
        if self.radio.requested_on && self.radio.power == RadioPower::Starting {
            self.set_sink(self.ids.radio_rx, radio_rx_state::LISTEN);
            self.radio.power = RadioPower::Listening;
        }
    }

    /// Handles a sensor conversion completion.  Returns the (kind, value,
    /// activity) for the application callback.
    pub(crate) fn handle_sensor_done(
        &mut self,
        kind: SensorKind,
        value: u16,
    ) -> Option<(SensorKind, u16)> {
        self.irq_enter(IrqSource::Sensor);
        let (finished, activity) = self.sensor.complete()?;
        debug_assert_eq!(finished, kind);
        // The completion interrupt's proxy is bound to the activity the
        // driver stored when the conversion started.
        self.cpu_activity_bind(activity);
        self.set_sink(self.ids.temp_sensor, StateIndex(0));
        self.set_sink(self.ids.adc, StateIndex(0));
        self.device_activity_set(self.dev_sensor, self.act_idle);
        self.spi_arbiter.release(BusClient::Sensor);
        Some((kind, value))
    }

    /// Handles a flash operation completion.
    pub(crate) fn handle_flash_done(&mut self, op: FlashOp) -> Option<FlashOp> {
        self.irq_enter(IrqSource::Flash);
        let (finished, _len, activity) = self.flash.complete()?;
        debug_assert_eq!(finished, op);
        self.cpu_activity_bind(activity);
        self.set_sink(
            self.ids.ext_flash,
            StateIndex(self.flash.power.state_index()),
        );
        self.device_activity_set(self.dev_flash, self.act_idle);
        self.spi_arbiter.release(BusClient::Flash);
        Some(op)
    }

    fn radio_sinks_on_listen(&mut self) {
        self.set_sink(self.ids.radio_regulator, radio_regulator_state::ON);
        self.set_sink(self.ids.radio_control, radio_control_state::IDLE);
        self.set_sink(self.ids.radio_rx, radio_rx_state::LISTEN);
        self.radio.power = RadioPower::Listening;
    }

    fn radio_sinks_off(&mut self) {
        self.set_sink(self.ids.radio_rx, radio_rx_state::OFF);
        self.set_sink(self.ids.radio_tx, radio_tx_state::OFF);
        self.set_sink(self.ids.radio_control, radio_control_state::OFF);
        self.set_sink(self.ids.radio_regulator, radio_regulator_state::OFF);
        self.radio.power = RadioPower::Off;
    }

    // ------------------------------------------------------------------
    // The application-facing OS API ("system calls").
    // ------------------------------------------------------------------

    /// The current node-local time.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// This node's identifier.
    pub fn node_id(&self) -> NodeId {
        self.config.node_id
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Defines a new application activity and returns its label.
    pub fn define_activity(&mut self, name: &str) -> ActivityLabel {
        self.quanto.registry_mut().define_app(name)
    }

    /// The CPU's current activity.
    pub fn cpu_activity(&self) -> ActivityLabel {
        self.quanto.activity_get(self.dev_cpu)
    }

    /// Paints the CPU with an activity — the one call an application
    /// programmer needs to make (Figure 7).
    pub fn set_cpu_activity(&mut self, label: ActivityLabel) {
        self.cpu_activity_set(label);
    }

    /// The idle activity label for this node.
    pub fn idle_activity(&self) -> ActivityLabel {
        self.act_idle
    }

    /// Spends `cycles` of CPU time on application computation.
    pub fn busy_wait(&mut self, cycles: u64) {
        self.charge_cycles(cycles);
    }

    /// Starts a virtual timer.  The CPU's current activity is saved and
    /// restored when the timer fires.
    pub fn start_timer(&mut self, period: SimDuration, periodic: bool) -> TimerId {
        let saved = self.cpu_activity();
        let (id, deadline) = self.timers.start(self.cursor, period, periodic, saved);
        self.queue
            .push(deadline, NodeEvent::HwTimerFired { timer: id });
        id
    }

    /// Stops a virtual timer.
    pub fn stop_timer(&mut self, id: TimerId) -> bool {
        self.timers.stop(id)
    }

    /// Posts a task with the default cost; the CPU's current activity is
    /// saved and restored when the task runs.
    pub fn post_task(&mut self, id: TaskId) {
        let cost = self.config.task_cycles;
        self.post_task_with_cost(id, cost);
    }

    /// Posts a task with an explicit CPU cost in cycles.
    pub fn post_task_with_cost(&mut self, id: TaskId, cost_cycles: u32) {
        let saved = self.cpu_activity();
        self.tasks.post(id, saved, cost_cycles);
    }

    /// Turns an LED on, painting it with the CPU's current activity.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not 0, 1 or 2.
    pub fn led_on(&mut self, idx: usize) {
        if self.leds.set(idx, true) {
            let activity = self.cpu_activity();
            self.device_activity_set(self.dev_leds[idx], activity);
            let sink = self.led_sink(idx);
            self.set_sink(sink, led_state::ON);
        }
    }

    /// Turns an LED off and returns its activity to idle.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not 0, 1 or 2.
    pub fn led_off(&mut self, idx: usize) {
        if self.leds.set(idx, false) {
            let sink = self.led_sink(idx);
            self.set_sink(sink, led_state::OFF);
            self.device_activity_set(self.dev_leds[idx], self.act_idle);
        }
    }

    /// Toggles an LED.
    pub fn led_toggle(&mut self, idx: usize) {
        if self.leds.is_on(idx) {
            self.led_off(idx);
        } else {
            self.led_on(idx);
        }
    }

    /// Whether an LED is currently on.
    pub fn led_is_on(&self, idx: usize) -> bool {
        self.leds.is_on(idx)
    }

    fn led_sink(&self, idx: usize) -> SinkId {
        match idx {
            0 => self.ids.led0,
            1 => self.ids.led1,
            2 => self.ids.led2,
            _ => panic!("LED index {idx} out of range"),
        }
    }

    /// Turns the radio on.  Without LPL the receiver starts listening after
    /// a short oscillator start-up; with LPL the radio begins duty-cycling.
    pub fn radio_on(&mut self) {
        if self.radio.requested_on {
            return;
        }
        self.radio.requested_on = true;
        let activity = self.cpu_activity();
        self.device_activity_set(self.dev_radio, activity);
        match self.config.lpl {
            Some(lpl) => {
                self.queue.push(
                    self.cursor + SimDuration::from_millis(lpl.check_interval_ms),
                    NodeEvent::LplWakeup,
                );
            }
            None => {
                self.set_sink(self.ids.radio_regulator, radio_regulator_state::ON);
                self.set_sink(self.ids.radio_control, radio_control_state::IDLE);
                self.radio.power = RadioPower::Starting;
                self.queue.push(
                    self.cursor + SimDuration::from_micros(860),
                    NodeEvent::RadioStartupDone,
                );
            }
        }
    }

    /// Turns the radio off entirely.
    pub fn radio_off(&mut self) {
        self.radio.requested_on = false;
        self.radio.lpl_wakeup_open = false;
        if self.radio.power != RadioPower::Off {
            self.radio_sinks_off();
        }
        self.device_activity_set(self.dev_radio, self.act_idle);
    }

    /// Submits a packet for transmission.  The packet's hidden activity field
    /// is stamped with the CPU's current activity, and the radio is painted
    /// with it too (Figure 8).
    ///
    /// Returns `false` if a transmission is already in progress or the radio
    /// has not been turned on.
    pub fn send(&mut self, dest: NodeId, am_type: u8, payload: Vec<u8>) -> bool {
        if self.radio.tx_busy() || !self.radio.requested_on {
            return false;
        }
        let activity = self.cpu_activity();
        let mut packet = AmPacket::new(self.config.node_id, dest, am_type, payload);
        packet.activity = activity;
        self.device_activity_set(self.dev_radio, activity);
        // With LPL the radio may be off between checks; power it up for the
        // send.
        if self.radio.power == RadioPower::Off {
            self.radio_sinks_on_listen();
        }
        let bytes = packet.wire_bytes();
        if !self.radio.begin_tx(packet, activity) {
            return false;
        }
        match self.config.spi_mode {
            SpiMode::Interrupt => {
                let chunk = SimDuration::from_micros(
                    self.config
                        .cycles_to_micros(self.config.spi_chunk_cycles as u64),
                );
                self.queue.push(self.cursor + chunk, NodeEvent::SpiTxChunk);
            }
            SpiMode::Dma => {
                let dur =
                    SimDuration::from_micros(self.config.cycles_to_micros(
                        self.config.spi_dma_cycles_per_byte as u64 * bytes as u64,
                    ));
                self.queue.push(self.cursor + dur, NodeEvent::SpiTxDmaDone);
            }
        }
        true
    }

    /// Whether a transmission is currently in progress.
    pub fn radio_busy(&self) -> bool {
        self.radio.tx_busy()
    }

    /// Starts a split-phase sensor read.  Returns `false` if the sensor or
    /// the SPI bus is busy.
    pub fn read_sensor(&mut self, kind: SensorKind) -> bool {
        let activity = self.cpu_activity();
        if self.spi_arbiter.request(BusClient::Sensor, activity) == GrantOutcome::Queued {
            return false;
        }
        if !self.sensor.start(kind, activity) {
            self.spi_arbiter.release(BusClient::Sensor);
            return false;
        }
        self.device_activity_set(self.dev_sensor, activity);
        match kind {
            SensorKind::Temperature => self.set_sink(self.ids.temp_sensor, StateIndex(1)),
            SensorKind::Humidity => self.set_sink(self.ids.adc, StateIndex(1)),
        }
        let value = self.rng.gen_range(0..4096) as u16;
        let conversion = SimDuration::from_millis(75);
        self.queue.push(
            self.cursor + conversion,
            NodeEvent::SensorDone { kind, value },
        );
        true
    }

    /// Starts a split-phase flash operation over `len` bytes.  Returns
    /// `false` if the flash or the SPI bus is busy.
    pub fn flash_op(&mut self, op: FlashOp, len: usize) -> bool {
        let activity = self.cpu_activity();
        if self.spi_arbiter.request(BusClient::Flash, activity) == GrantOutcome::Queued {
            return false;
        }
        let Some(power) = self.flash.start(op, len, activity) else {
            self.spi_arbiter.release(BusClient::Flash);
            return false;
        };
        self.device_activity_set(self.dev_flash, activity);
        self.set_sink(self.ids.ext_flash, StateIndex(power.state_index()));
        let us_per_byte: u64 = match op {
            FlashOp::Read => 5,
            FlashOp::Write => 20,
            FlashOp::Erase => 40,
        };
        let dur = SimDuration::from_micros(1_000 + us_per_byte * len as u64);
        self.queue
            .push(self.cursor + dur, NodeEvent::FlashDone { op });
        true
    }

    /// Uniformly-distributed random number in `[0, bound)`, from the node's
    /// deterministic RNG (for application jitter).
    pub fn random(&mut self, bound: u32) -> u32 {
        self.rng.gen_range(0..bound.max(1))
    }

    // ------------------------------------------------------------------
    // Introspection used by the simulator and by tests.
    // ------------------------------------------------------------------

    /// The hardware catalog this node runs on.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The well-known sink ids of the catalog.
    pub fn sink_ids(&self) -> &HydrowatchIds {
        &self.ids
    }

    /// The Quanto runtime (for registry lookups and counters).
    pub fn quanto(&self) -> &QuantoRuntime {
        &self.quanto
    }

    /// Attaches a streaming consumer of drained log chunks (the run-loop
    /// drain hookup): `Flush`-policy drains during the run and the end-of-run
    /// take both go through the sink, so the node-side log memory stays
    /// bounded by the RAM buffer capacity.  With a sink attached,
    /// [`NodeRunOutput::log`] comes back empty — the entries live wherever
    /// the sink put them.
    pub fn set_log_sink(&mut self, sink: Box<dyn quanto_core::LogSink>) {
        self.quanto.set_log_sink(sink);
    }

    /// Attaches or detaches the ground-truth oscilloscope probe.  The
    /// current trace grows with every power-state change, so headless runs
    /// that only need the Quanto log and the energy totals (the fleet's
    /// zero-materialization path) detach it to stay memory-bounded.  Energy
    /// accounting ([`NodeRunOutput::ground_truth`]) is unaffected.
    pub fn set_trace_recording(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// The tracked device ids: `(cpu, leds, radio, flash, sensor)`.
    pub fn device_ids(&self) -> (DeviceId, [DeviceId; 3], DeviceId, DeviceId, DeviceId) {
        (
            self.dev_cpu,
            self.dev_leds,
            self.dev_radio,
            self.dev_flash,
            self.dev_sensor,
        )
    }

    /// Radio statistics.
    pub fn radio_stats(&self) -> crate::drivers::RadioStats {
        self.radio.stats
    }

    /// Whether the radio receiver is currently able to hear a frame.
    pub fn radio_listening(&self) -> bool {
        self.radio.can_hear()
    }

    /// Collects the node's outputs at the end of a run, advancing the energy
    /// ground truth to `end`.
    pub(crate) fn collect_output(&mut self, end: SimTime) -> NodeRunOutput {
        self.cursor = self.cursor.max(end);
        self.accumulator.advance(self.cursor);
        let reading = self.meter.read(self.accumulator.total_energy());
        let final_stamp = Stamp::new(self.cursor, reading.counter);
        let mut trace = self.trace.clone();
        trace.finish(self.cursor);
        // End-of-run take: with a sink attached the remaining buffered tail
        // streams through it and `log` stays empty; otherwise the held
        // chunks are copied out once (no intermediate clone of `drained`).
        let log = if self.quanto.drain_log_to_attached_sink() {
            Vec::new()
        } else {
            let mut log = Vec::with_capacity(self.quanto.logger().len());
            for chunk in self.quanto.logger().chunks() {
                log.extend_from_slice(chunk);
            }
            log
        };
        NodeRunOutput {
            log,
            final_stamp,
            trace,
            ground_truth: self.accumulator.breakdown(),
            radio_stats: self.radio.stats,
            cost_stats: *self.quanto.cost_stats(),
            tasks_posted: self.tasks.posted_total(),
            log_dropped: self.quanto.logger().dropped(),
        }
    }
}
