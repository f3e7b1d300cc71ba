//! A simulated compute node.
//!
//! [`SimNode`] owns one [`SimDevice`] per monitored hardware/OS resource
//! and a process table. [`SimNode::advance`] integrates a workload
//! [`NodeDemand`] over a time step into counter increments, emulating what
//! the real hardware would have counted.
//!
//! The node exposes the *raw interfaces* the collector consumes:
//! binary MSR reads ([`SimNode::read_msr`]), PCI-config-space uncore
//! counter reads ([`SimNode::read_pci_counter`]), and — through
//! [`crate::pseudofs`] — procfs/sysfs-style text files.
//!
//! Device instances live in a table indexed by the [`DeviceType`]
//! discriminant (absent hardware is an empty `Vec`), and `advance` writes
//! registers by schema position ([`crate::schema::pos`]), each per-CPU
//! device's block as one row ([`SimDevice::add_row`]): a step is
//! arithmetic over inline registers, with no name lookup, no allocation
//! and no library call.
//!
//! CPUs that run in lockstep share registers. A job pinned one rank per
//! core adds the same row to every CPU it runs on, so the leading CPUs
//! of the `cpu` and `cpustat` tables form a *lockstep group*: the first
//! `group` instances all read the registers of the group's last member,
//! and `advance` adds the group's row once, to that member — so a step's
//! rows still go to one contiguous run of devices, and its loops are the
//! per-CPU loops with a `skip`. The group only shrinks, and the instances
//! that leave it take a copy of its registers first: a step whose active
//! CPUs end inside the group splits it there, and a `set_frozen` that
//! changes a member's state splits it at that member (one that changes
//! nothing keeps it). [`SimNode::reboot`] zeroes every register and thaws
//! every device, so it re-forms the whole group. Every register and
//! carry is the one a step of each instance on its own would give — the
//! same state and the same row through the same arithmetic. Only this
//! file knows: every read resolves an instance through
//! [`SimNode::device`].

use crate::devices::SimDevice;
use crate::faults::{ReadFault, ReadFaultMode};
use crate::schema::pos::{
    cbo, cpu, cpustat, ib, imc, llite, lnet, mdc, mem, mic, net, osc, qpi, rapl,
};
use crate::schema::DeviceType;
use crate::topology::NodeTopology;
use crate::workload::NodeDemand;
use crate::SimDuration;

/// MSR address of IA32_FIXED_CTR0 (instructions retired).
pub const MSR_FIXED_CTR0: u32 = 0x309;
/// MSR address of IA32_FIXED_CTR1 (core cycles).
pub const MSR_FIXED_CTR1: u32 = 0x30A;
/// MSR address of IA32_FIXED_CTR2 (reference cycles).
pub const MSR_FIXED_CTR2: u32 = 0x30B;
/// MSR address of the first programmable counter (IA32_PMC0).
pub const MSR_PMC0: u32 = 0xC1;
/// MSR address of the RAPL package energy-status register.
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
/// MSR address of the RAPL power-plane-0 (cores) energy-status register.
pub const MSR_PP0_ENERGY_STATUS: u32 = 0x639;
/// MSR address of the RAPL DRAM energy-status register.
pub const MSR_DRAM_ENERGY_STATUS: u32 = 0x619;

/// Uncore device selector for PCI-config-space reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UncoreDev {
    /// Integrated memory controller.
    Imc,
    /// QPI link layer.
    Qpi,
    /// LLC coherence boxes.
    Cbo,
}

/// An entry in the simulated process table — the data the paper's new
/// procfs collection gathers per process (§III-B item 4).
#[derive(Clone, Debug)]
pub struct ProcessInfo {
    /// Process id.
    pub pid: u32,
    /// Owning user id.
    pub uid: u32,
    /// Executable name.
    pub comm: String,
    /// Virtual memory size (KiB).
    pub vm_size_kib: u64,
    /// Virtual memory high-water mark — peak VmSize (KiB).
    pub vm_peak_kib: u64,
    /// Resident set size (KiB).
    pub vm_rss_kib: u64,
    /// RSS high-water mark (KiB). The paper: "a true memory high water
    /// mark for each process is recorded by the OS".
    pub vm_hwm_kib: u64,
    /// Locked memory (KiB).
    pub vm_lck_kib: u64,
    /// Data segment size (KiB).
    pub vm_data_kib: u64,
    /// Stack size (KiB).
    pub vm_stk_kib: u64,
    /// Text segment size (KiB).
    pub vm_exe_kib: u64,
    /// Thread count.
    pub threads: u32,
    /// CPU affinity mask (bit per logical CPU).
    pub cpus_allowed: u64,
    /// Memory (NUMA node) affinity mask.
    pub mems_allowed: u64,
    /// Cumulative user-mode jiffies consumed.
    pub utime_jiffies: u64,
}

/// A simulated compute node.
#[derive(Clone, Debug)]
pub struct SimNode {
    /// Hostname, e.g. `c401-101`.
    pub hostname: String,
    /// Hardware layout.
    pub topology: NodeTopology,
    /// Instances per device type, indexed by `dt as usize`.
    devices: [Vec<SimDevice>; DeviceType::COUNT],
    processes: Vec<ProcessInfo>,
    next_pid: u32,
    crashed: bool,
    boot_count: u32,
    /// The lockstep groups of the `cpu` and `cpustat` tables: how many
    /// leading instances read the registers of the last of them (at least
    /// 1 when the table has an instance). Two `u16`s fit the struct's
    /// padding.
    cpu_group: u16,
    cpustat_group: u16,
    read_faults: Vec<ReadFault>,
}

/// The instances of `dt` a node of `topology` carries — none when the
/// hardware is absent (no RAPL before Sandy Bridge, no IB, Lustre or Phi).
// alloc: cold-fn (node construction)
fn instances(dt: DeviceType, topology: &NodeTopology) -> Vec<SimDevice> {
    let arch = topology.arch;
    let numbered = |n: usize| -> Vec<SimDevice> {
        (0..n)
            .map(|i| SimDevice::new(dt, i.to_string(), arch))
            .collect()
    };
    let lustre = &topology.lustre_filesystems;
    match dt {
        DeviceType::Cpu | DeviceType::Cpustat => numbered(topology.n_cpus()),
        DeviceType::Imc | DeviceType::Qpi | DeviceType::Cbo | DeviceType::Mem => {
            numbered(topology.sockets)
        }
        DeviceType::Rapl if arch.has_rapl() => numbered(topology.sockets),
        DeviceType::Ib if topology.has_infiniband => vec![SimDevice::new(dt, "mlx4_0/1", arch)],
        DeviceType::Net => vec![SimDevice::new(dt, "eth0", arch)],
        DeviceType::Llite | DeviceType::Mdc | DeviceType::Osc => lustre
            .iter()
            .map(|fs| SimDevice::new(dt, fs.as_str(), arch))
            .collect(),
        DeviceType::Lnet if !lustre.is_empty() => vec![SimDevice::new(dt, "lnet", arch)],
        DeviceType::Mic => (0..topology.mic_cards)
            .map(|i| SimDevice::new(dt, format!("mic{i}"), arch))
            .collect(),
        DeviceType::Rapl | DeviceType::Ib | DeviceType::Lnet | DeviceType::Ps => Vec::new(),
    }
}

/// A lockstep group of the first `n` instances, as stored (past `u16::MAX`
/// CPUs, only the first `u16::MAX` would share).
fn group_of(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Instances `from..group` of `devs` leave the lockstep group (instance 0
/// never does). The group's registers live in its last member, so that
/// member keeps them, and the new last member and every other leaving
/// member take a copy.
fn leave_group(devs: &mut [SimDevice], group: &mut u16, from: usize) {
    let from = from.max(1);
    let end = usize::from(*group);
    if from >= end {
        return;
    }
    if let Some((last, members)) = devs.get_mut(..end).and_then(<[_]>::split_last_mut) {
        for dev in members.iter_mut().skip(from - 1) {
            dev.copy_registers(last);
        }
    }
    *group = group_of(from);
}

/// A register row: each amount at its schema position, zero elsewhere.
fn row<const N: usize>(at: &[(usize, f64)]) -> [f64; N] {
    let mut row = [0.0; N];
    for &(pos, amount) in at {
        if let Some(slot) = row.get_mut(pos) {
            *slot = amount;
        }
    }
    row
}

impl SimNode {
    /// Build a node with all devices implied by its topology.
    // alloc: cold-fn (node construction)
    pub fn new(hostname: impl Into<String>, topology: NodeTopology) -> Self {
        let devices = DeviceType::ALL.map(|dt| instances(dt, &topology));
        let mut node = SimNode {
            hostname: hostname.into(),
            topology,
            devices,
            processes: Vec::new(),
            next_pid: 1000,
            crashed: false,
            boot_count: 1,
            cpu_group: 0,
            cpustat_group: 0,
            read_faults: Vec::new(),
        };
        node.regroup();
        node.set_mem_total();
        node
    }

    /// Instance `i` of `dt` as a read sees it — its registers, schema and
    /// frozen flag — or `None` past the last (none at all when the
    /// hardware is absent: no Lustre mounts, no Phi, no IB). A CPU of the
    /// lockstep group reads through the group's last device, so the
    /// device does not name the instance: [`SimNode::instance_name`] does.
    pub fn device(&self, dt: DeviceType, i: usize) -> Option<&SimDevice> {
        let devs = self.devices.get(dt as usize)?;
        let group = usize::from(match dt {
            DeviceType::Cpu => self.cpu_group,
            DeviceType::Cpustat => self.cpustat_group,
            _ => 0,
        });
        devs.get(if i < group { group - 1 } else { i })
    }

    /// The name of instance `i` of `dt` (`"3"` for CPU 3, `"scratch"` for
    /// a Lustre mount, `"mlx4_0/1"` for an IB port), or `None` past the
    /// last.
    pub fn instance_name(&self, dt: DeviceType, i: usize) -> Option<&str> {
        Some(self.devices.get(dt as usize)?.get(i)?.instance.as_str())
    }

    /// Every CPU in one lockstep group: right after construction and
    /// reboot, when every register is zero and every device thawed.
    fn regroup(&mut self) {
        self.cpu_group = group_of(self.topology.n_cpus());
        self.cpustat_group = group_of(self.topology.n_cpus());
    }

    /// The `MemTotal` gauge of every NUMA node: installed memory split
    /// evenly over the sockets.
    fn set_mem_total(&mut self) {
        let per_socket_kib = self.topology.memory_bytes / 1024 / self.topology.sockets as u64;
        if let Some(mems) = self.devices.get_mut(DeviceType::Mem as usize) {
            for m in mems {
                m.set_gauge_at(mem::MEM_TOTAL, per_socket_kib);
            }
        }
    }

    /// Current process table.
    pub fn processes(&self) -> &[ProcessInfo] {
        &self.processes
    }

    /// Whether the node has crashed (and not yet rebooted).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Number of times the node has booted.
    pub fn boot_count(&self) -> u32 {
        self.boot_count
    }

    /// Simulate a node failure: the node stops responding (advance becomes
    /// a no-op and reads fail) until [`SimNode::reboot`].
    pub fn crash(&mut self) {
        self.crashed = true;
        self.processes.clear();
    }

    /// Reboot after a crash: all counters reset to zero (as real hardware
    /// counters do), the process table empties.
    pub fn reboot(&mut self) {
        for d in self.devices.iter_mut().flatten() {
            d.reset();
        }
        self.regroup();
        self.set_mem_total();
        self.processes.clear();
        self.crashed = false;
        self.boot_count += 1;
    }

    /// Spawn an application process; returns its pid.
    // alloc: cold-fn (a process-table entry, once per job start)
    pub fn spawn_process(&mut self, comm: &str, uid: u32, threads: u32, cpus_allowed: u64) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.push(ProcessInfo {
            pid,
            uid,
            comm: comm.to_string(),
            vm_size_kib: 40 << 10, // ~40 MB at startup
            vm_peak_kib: 40 << 10,
            vm_rss_kib: 8 << 10,
            vm_hwm_kib: 8 << 10,
            vm_lck_kib: 0,
            vm_data_kib: 16 << 10,
            vm_stk_kib: 8 << 10,
            vm_exe_kib: 4 << 10,
            threads,
            cpus_allowed,
            mems_allowed: (1u64 << self.topology.sockets) - 1,
            utime_jiffies: 0,
        });
        pid
    }

    /// Terminate a process by pid. Returns true if it existed.
    pub fn end_process(&mut self, pid: u32) -> bool {
        let before = self.processes.len();
        self.processes.retain(|p| p.pid != pid);
        self.processes.len() != before
    }

    /// Terminate every process owned by `uid`.
    pub fn end_processes_of(&mut self, uid: u32) {
        self.processes.retain(|p| p.uid != uid);
    }

    /// Integrate `demand` over `dt`, advancing every counter on the node.
    ///
    /// A crashed node ignores the call.
    ///
    /// Every floating-point expression is the one the by-name model
    /// evaluated, in the same order (`crates/simnode/tests/advance_props.rs`
    /// holds every register and carry bit-identical to it); an amount the
    /// same for every instance is computed once, outside its loop, and a
    /// row the same for the whole lockstep group is added once.
    pub fn advance(&mut self, dt: SimDuration, demand: &NodeDemand) {
        if self.crashed || dt.is_zero() {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let topo = &self.topology;
        let arch = topo.arch;
        // Declaration order of `DeviceType` — the table's index.
        let [cpus, imcs, qpis, cbos, rapls, cpustats, mems, ibs, nets, llites, mdcs, oscs, lnets, mics, _ps] =
            &mut self.devices;

        let active = demand.active_cores.min(topo.n_cores());
        let user = demand.cpu_user_frac;
        let sys = demand.cpu_sys_frac;
        let iow = demand.cpu_iowait_frac;

        // --- Core counters + /proc/stat accounting, per logical CPU ---
        // Active cores are the first `active` physical cores; jobs run one
        // hardware thread per core (typical HPC pinning), so the active
        // logical CPUs are exactly CPUs `0..active`.
        let clock = arch.clock_hz() as f64;
        // Cycles accrue whenever the core is busy (user or system); the
        // demanded CPI relates retired instructions to those cycles, so
        // metric-side CPI recovers the demand exactly.
        let cycles_per_active_cpu = clock * (user + sys) * dt_s;
        let inst_per_active_cpu = if active > 0 {
            cycles_per_active_cpu / demand.cpi
        } else {
            0.0
        };
        // FP instruction decomposition: flops = N*((1-v) + v*w), where N is
        // FP instructions/s and w the vector width in FLOPs.
        let w = arch.vector_width_flops() as f64;
        let v = demand.vector_frac;
        let fp_inst_rate = if demand.flops_per_sec > 0.0 {
            demand.flops_per_sec / ((1.0 - v) + v * w)
        } else {
            0.0
        };
        let fp_scalar_node = fp_inst_rate * (1.0 - v) * dt_s;
        let fp_vector_node = fp_inst_rate * v * dt_s;
        let an = active as f64;
        let fp_scalar_cpu = fp_scalar_node / an;
        let fp_vector_cpu = fp_vector_node / an;
        let loads = inst_per_active_cpu * demand.loads_per_inst;
        // One row per CPU; the cache-hit pair at its end falls off a
        // seven-event schema.
        let cpu_row: [f64; cpu::LOAD_LLC_HIT + 1] = row(&[
            (cpu::FIXED_CTR0, inst_per_active_cpu),
            (cpu::FIXED_CTR1, cycles_per_active_cpu),
            (cpu::FIXED_CTR2, cycles_per_active_cpu),
            (cpu::FP_SCALAR, fp_scalar_cpu),
            (cpu::FP_VECTOR, fp_vector_cpu),
            (cpu::LOAD_ALL, loads),
            (cpu::LOAD_L1_HIT, loads * demand.l1_hit_frac),
            (cpu::LOAD_L2_HIT, loads * demand.l2_hit_frac),
            (cpu::LOAD_LLC_HIT, loads * demand.llc_hit_frac),
        ]);
        // Active CPUs that end inside the lockstep group split it there;
        // then the group's row goes to its last member, which holds its
        // registers, and the CPUs before that member take no row.
        if active > 0 {
            leave_group(cpus, &mut self.cpu_group, active);
        }
        let shared = usize::from(self.cpu_group).saturating_sub(1);
        for dev in cpus.iter_mut().take(active).skip(shared) {
            dev.add_row(&cpu_row);
        }
        // Nothing adds nice jiffies, and an idle CPU adds no user or
        // iowait ones: their zero amounts leave those registers as they
        // were.
        let jiffies = dt_s * 100.0;
        let busy_idle = jiffies * (1.0 - user - sys - iow).max(0.0);
        let busy_row: [f64; cpustat::IOWAIT + 1] = row(&[
            (cpustat::USER, jiffies * user),
            (cpustat::SYSTEM, jiffies * sys),
            (cpustat::IDLE, busy_idle),
            (cpustat::IOWAIT, jiffies * iow),
        ]);
        let idle_row: [f64; cpustat::IDLE + 1] = row(&[
            (cpustat::SYSTEM, jiffies * 0.002),
            (cpustat::IDLE, jiffies * 0.998),
        ]);
        if active > 0 {
            leave_group(cpustats, &mut self.cpustat_group, active);
        }
        let shared = usize::from(self.cpustat_group).saturating_sub(1);
        for (c, dev) in cpustats.iter_mut().enumerate().skip(shared) {
            dev.add_row(if c < active { &busy_row } else { &idle_row });
        }

        // --- Uncore: memory controller, QPI, LLC boxes (per socket) ---
        let sockets = topo.sockets as f64;
        let bytes = demand.mem_bw_bytes_per_sec * dt_s;
        let cas_total = bytes / 64.0; // one CAS per 64 B cache line
        let (cas_reads, cas_writes) = (
            cas_total * (2.0 / 3.0) / sockets,
            cas_total * (1.0 / 3.0) / sockets,
        );
        let uncore_cycles = clock * dt_s;
        for dev in imcs.iter_mut() {
            dev.add_at(imc::CAS_READS, cas_reads);
            dev.add_at(imc::CAS_WRITES, cas_writes);
            dev.add_at(imc::CYCLES, uncore_cycles);
        }
        // Cross-socket traffic modelled as a fixed share of memory
        // traffic; QPI moves 8-byte flits.
        let data_flits = bytes * 0.25 / 8.0 / sockets;
        for dev in qpis.iter_mut() {
            dev.add_at(qpi::G0_DATA_FLITS, data_flits);
            dev.add_at(qpi::G0_NON_DATA_FLITS, data_flits * 0.5);
        }
        let total_loads = inst_per_active_cpu * demand.loads_per_inst * active as f64;
        let lookups = total_loads * (1.0 - demand.l1_hit_frac - demand.l2_hit_frac).max(0.0);
        let hits = total_loads * demand.llc_hit_frac;
        let (llc_lookup, llc_miss) = (lookups / sockets, (lookups - hits).max(0.0) / sockets);
        for dev in cbos.iter_mut() {
            dev.add_at(cbo::LLC_LOOKUP, llc_lookup);
            dev.add_at(cbo::LLC_MISS, llc_miss);
        }

        // --- RAPL energy (per socket): a linear power model ---
        let busy = (user + sys) * active as f64 / topo.n_cores() as f64;
        let pkg_w = 40.0 + 75.0 * busy;
        let pp0_w = 25.0 + 65.0 * busy;
        let bw_frac = (demand.mem_bw_bytes_per_sec / 5.0e10).min(1.0);
        let dram_w = 6.0 + 14.0 * bw_frac;
        let joules_to_units = 16384.0; // 2^14 units per joule
        for dev in rapls.iter_mut() {
            dev.add_at(rapl::MSR_PKG_ENERGY_STATUS, pkg_w * dt_s * joules_to_units);
            dev.add_at(rapl::MSR_PP0_ENERGY_STATUS, pp0_w * dt_s * joules_to_units);
            dev.add_at(
                rapl::MSR_DRAM_ENERGY_STATUS,
                dram_w * dt_s * joules_to_units,
            );
        }

        // --- Memory gauges ---
        let used_kib = (demand.mem_used_bytes / 1024).max(512 << 10);
        let per_socket = used_kib / topo.sockets as u64;
        for dev in mems.iter_mut() {
            dev.set_gauge_at(mem::MEM_USED, per_socket);
            dev.set_gauge_at(mem::FILE_PAGES, per_socket / 5);
            dev.set_gauge_at(mem::ANON_PAGES, per_socket * 7 / 10);
        }

        // --- Networks ---
        let ib_bytes = demand.ib_bytes_per_sec * dt_s;
        let pkts = ib_bytes / demand.ib_pkt_size.max(16.0);
        for dev in ibs.iter_mut() {
            // IB data counters count 4-byte words.
            dev.add_at(ib::PORT_XMIT_DATA, ib_bytes / 4.0);
            dev.add_at(ib::PORT_RCV_DATA, ib_bytes / 4.0);
            dev.add_at(ib::PORT_XMIT_PKTS, pkts);
            dev.add_at(ib::PORT_RCV_PKTS, pkts);
        }
        let gbytes = demand.gige_bytes_per_sec * dt_s;
        for dev in nets.iter_mut() {
            dev.add_at(net::RX_BYTES, gbytes / 2.0);
            dev.add_at(net::TX_BYTES, gbytes / 2.0);
            dev.add_at(net::RX_PACKETS, gbytes / 2.0 / 1448.0);
            dev.add_at(net::TX_PACKETS, gbytes / 2.0 / 1448.0);
        }

        // --- Lustre: mount i takes demand.lustre[i]; a mount without
        // demand sees no traffic ---
        let mut lnet_tx = 0.0f64;
        let mut lnet_rx = 0.0f64;
        let mut lnet_msgs = 0.0f64;
        let mounts = llites.iter_mut().zip(mdcs.iter_mut()).zip(oscs.iter_mut());
        for (((client, meta), object), ld) in mounts.zip(&demand.lustre) {
            client.add_at(llite::READ_BYTES, ld.read_bytes_per_sec * dt_s);
            client.add_at(llite::WRITE_BYTES, ld.write_bytes_per_sec * dt_s);
            client.add_at(llite::OPEN, ld.opens_per_sec * dt_s);
            client.add_at(llite::CLOSE, ld.opens_per_sec * dt_s);
            client.add_at(llite::GETATTR, ld.getattr_per_sec * dt_s);
            client.add_at(llite::STATFS, 0.01 * dt_s);
            client.add_at(llite::SEEK, ld.osc_reqs_per_sec * 0.5 * dt_s);
            client.add_at(llite::FSYNC, 0.001 * dt_s);
            let reqs = ld.mdc_reqs_per_sec * dt_s;
            meta.add_at(mdc::REQS, reqs);
            meta.add_at(mdc::WAIT, reqs * ld.mdc_wait_us);
            let reqs = ld.osc_reqs_per_sec * dt_s;
            object.add_at(osc::REQS, reqs);
            object.add_at(osc::WAIT, reqs * ld.osc_wait_us);
            object.add_at(osc::READ_BYTES, ld.read_bytes_per_sec * dt_s);
            object.add_at(osc::WRITE_BYTES, ld.write_bytes_per_sec * dt_s);
            lnet_tx += ld.write_bytes_per_sec * dt_s;
            lnet_rx += ld.read_bytes_per_sec * dt_s;
            lnet_msgs += (ld.mdc_reqs_per_sec + ld.osc_reqs_per_sec) * dt_s;
        }
        for dev in lnets.iter_mut() {
            // Metadata RPCs move small (~1 KiB) messages.
            dev.add_at(lnet::TX_BYTES, lnet_tx + lnet_msgs * 512.0);
            dev.add_at(lnet::RX_BYTES, lnet_rx + lnet_msgs * 512.0);
            dev.add_at(lnet::TX_MSGS, lnet_msgs + (lnet_tx / (1 << 20) as f64));
            dev.add_at(lnet::RX_MSGS, lnet_msgs + (lnet_rx / (1 << 20) as f64));
        }

        // --- Xeon Phi ---
        // KNC SE10P: 61 cores × 4 hardware threads = 244 logical CPUs.
        let mic_cpus = 244.0;
        let mic_jiffies = dt_s * 100.0 * mic_cpus;
        for dev in mics.iter_mut() {
            dev.add_at(mic::USER_SUM, mic_jiffies * demand.mic_user_frac);
            dev.add_at(mic::SYS_SUM, mic_jiffies * 0.005);
            dev.add_at(
                mic::IDLE_SUM,
                mic_jiffies * (1.0 - demand.mic_user_frac - 0.005).max(0.0),
            );
        }

        // --- Process table ---
        if !self.processes.is_empty() {
            let n_app = self
                .processes
                .iter()
                .filter(|p| p.uid >= 1000)
                .count()
                .max(1) as f64;
            let rss_each = (demand.mem_used_bytes / 1024) / n_app as u64;
            let cpu_jiffies_each = dt_s * 100.0 * user * active as f64 / n_app;
            for p in &mut self.processes {
                if p.uid < 1000 {
                    continue; // system daemons stay tiny
                }
                p.vm_rss_kib = rss_each;
                p.vm_hwm_kib = p.vm_hwm_kib.max(rss_each);
                p.vm_size_kib = rss_each + (64 << 10);
                p.vm_peak_kib = p.vm_peak_kib.max(p.vm_size_kib);
                p.vm_data_kib = rss_each * 8 / 10;
                p.utime_jiffies += cpu_jiffies_each as u64;
            }
        }
    }

    /// Read a model-specific register of a logical CPU, as the collector
    /// would through `/dev/cpu/<cpu>/msr`. Returns `None` for unknown
    /// addresses, out-of-range CPUs, or a crashed node.
    ///
    /// An address maps straight to a schema position — the fixed
    /// counters are events 0..3 of the `cpu` schema, the programmable
    /// ones follow, the RAPL registers are events 0..3 of `rapl` — so a
    /// read touches exactly one counter.
    pub fn read_msr(&self, cpu_id: usize, addr: u32) -> Option<u64> {
        if self.crashed || cpu_id >= self.topology.n_cpus() {
            return None;
        }
        let socket = self.topology.socket_of_cpu(cpu_id);
        let (dt, dev, idx) = match addr {
            MSR_FIXED_CTR0 => (DeviceType::Cpu, cpu_id, cpu::FIXED_CTR0),
            MSR_FIXED_CTR1 => (DeviceType::Cpu, cpu_id, cpu::FIXED_CTR1),
            MSR_FIXED_CTR2 => (DeviceType::Cpu, cpu_id, cpu::FIXED_CTR2),
            a if (MSR_PMC0..MSR_PMC0 + 8).contains(&a) => (
                DeviceType::Cpu,
                cpu_id,
                cpu::FP_SCALAR + (a - MSR_PMC0) as usize,
            ),
            MSR_PKG_ENERGY_STATUS => (DeviceType::Rapl, socket, rapl::MSR_PKG_ENERGY_STATUS),
            MSR_PP0_ENERGY_STATUS => (DeviceType::Rapl, socket, rapl::MSR_PP0_ENERGY_STATUS),
            MSR_DRAM_ENERGY_STATUS => (DeviceType::Rapl, socket, rapl::MSR_DRAM_ENERGY_STATUS),
            _ => return None,
        };
        self.device(dt, dev)?.read_at(idx)
    }

    /// Read an uncore counter from (simulated) PCI configuration space.
    /// `idx` is the counter index within the device's schema.
    pub fn read_pci_counter(&self, socket: usize, dev: UncoreDev, idx: usize) -> Option<u64> {
        if self.crashed {
            return None;
        }
        let dt = match dev {
            UncoreDev::Imc => DeviceType::Imc,
            UncoreDev::Qpi => DeviceType::Qpi,
            UncoreDev::Cbo => DeviceType::Cbo,
        };
        self.device(dt, socket)?.read_at(idx)
    }

    /// Install the set of pseudo-file read faults currently active on
    /// this node (replacing any previous set). The fault driver calls
    /// this each step with the faults whose windows are open.
    pub fn set_read_faults(&mut self, faults: Vec<ReadFault>) {
        self.read_faults = faults;
    }

    /// The read-fault mode affecting `path`, if any (longest matching
    /// prefix wins; with non-overlapping fault prefixes this is simply
    /// the first match).
    pub fn read_fault(&self, path: &str) -> Option<ReadFaultMode> {
        self.read_faults
            .iter()
            .filter(|f| path.starts_with(f.prefix.as_str()))
            .max_by_key(|f| f.prefix.len())
            .map(|f| f.mode)
    }

    /// Freeze or thaw a device instance's counters (a stuck-counter
    /// fault). `instance` matches exactly or as a `/`-separated prefix,
    /// so `"mlx4_0"` freezes the IB port instance `"mlx4_0/1"`. Returns
    /// how many instances matched.
    ///
    /// A CPU whose state changes leaves the lockstep group first, and
    /// takes every later member with it.
    pub fn set_frozen(&mut self, dt: DeviceType, instance: &str, frozen: bool) -> usize {
        let Some(devs) = self.devices.get_mut(dt as usize) else {
            return 0;
        };
        let mut group = match dt {
            DeviceType::Cpu => Some(&mut self.cpu_group),
            DeviceType::Cpustat => Some(&mut self.cpustat_group),
            _ => None,
        };
        let mut n = 0;
        for k in 0..devs.len() {
            let Some(d) = devs.get(k) else {
                break;
            };
            let matches = d
                .instance
                .strip_prefix(instance)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'));
            if !matches {
                continue;
            }
            if d.is_frozen() != frozen {
                if let Some(group) = group.as_deref_mut() {
                    leave_group(devs, group, k);
                }
            }
            if let Some(d) = devs.get_mut(k) {
                d.set_frozen(frozen);
            }
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::LustreDemand;

    /// Instance `i` of `dt`, which the test knows exists.
    fn dev(n: &SimNode, dt: DeviceType, i: usize) -> &SimDevice {
        n.device(dt, i)
            .unwrap_or_else(|| panic!("{dt} has no instance {i}"))
    }

    /// How many instances of `dt` the node has.
    fn count(n: &SimNode, dt: DeviceType) -> usize {
        (0..).take_while(|&i| n.device(dt, i).is_some()).count()
    }

    fn busy_demand() -> NodeDemand {
        NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.9,
            cpu_sys_frac: 0.02,
            cpi: 0.8,
            flops_per_sec: 1e11,
            vector_frac: 0.8,
            mem_bw_bytes_per_sec: 4e10,
            mem_used_bytes: 20 << 30,
            ib_bytes_per_sec: 2e8,
            lustre: vec![LustreDemand {
                mdc_reqs_per_sec: 100.0,
                mdc_wait_us: 500.0,
                osc_reqs_per_sec: 50.0,
                osc_wait_us: 2000.0,
                opens_per_sec: 2.0,
                getattr_per_sec: 20.0,
                read_bytes_per_sec: 1e7,
                write_bytes_per_sec: 5e6,
            }],
            ..NodeDemand::default()
        }
    }

    #[test]
    fn stampede_node_has_expected_devices() {
        let n = SimNode::new("c401-101", NodeTopology::stampede());
        assert_eq!(count(&n, DeviceType::Cpu), 16);
        assert_eq!(count(&n, DeviceType::Imc), 2);
        assert_eq!(count(&n, DeviceType::Rapl), 2);
        assert_eq!(count(&n, DeviceType::Llite), 2);
        assert_eq!(count(&n, DeviceType::Mic), 1);
        assert_eq!(count(&n, DeviceType::Ib), 1);
    }

    #[test]
    fn device_table_is_keyed_by_type() {
        for topo in [NodeTopology::stampede(), NodeTopology::lonestar5()] {
            let n = SimNode::new("c0-0", topo);
            for dt in DeviceType::ALL {
                let n_dt = count(&n, dt);
                assert!((0..n_dt).all(|i| dev(&n, dt, i).dev_type == dt), "{dt}");
                assert_eq!(n.instance_name(dt, n_dt), None, "{dt}");
            }
            assert!(count(&n, DeviceType::Ps) == 0);
        }
    }

    #[test]
    fn node_without_options_lacks_devices() {
        let topo = NodeTopology {
            has_infiniband: false,
            mic_cards: 0,
            lustre_filesystems: vec![],
            ..NodeTopology::stampede()
        };
        let n = SimNode::new("c0-0", topo);
        assert!(count(&n, DeviceType::Ib) == 0);
        assert!(count(&n, DeviceType::Mic) == 0);
        assert!(count(&n, DeviceType::Llite) == 0);
        assert!(count(&n, DeviceType::Lnet) == 0);
    }

    #[test]
    fn advance_accumulates_instructions_and_flops() {
        let mut n = SimNode::new("c401-101", NodeTopology::stampede());
        let d = busy_demand();
        n.advance(SimDuration::from_secs(600), &d);
        let cpu0 = dev(&n, DeviceType::Cpu, 0);
        let inst = cpu0.read("FIXED_CTR0").unwrap();
        // 2.7 GHz * (0.9 user + 0.02 sys) / 0.8 cpi * 600 s.
        let expected = 2.7e9 * 0.92 / 0.8 * 600.0;
        assert!(
            (inst as f64 - expected).abs() / expected < 0.01,
            "inst={inst}"
        );
        // Node-wide FLOPs: scalar + 4*vector should equal 1e11 * 600.
        let mut scalar = 0u64;
        let mut vector = 0u64;
        for c in (0..16).map(|i| dev(&n, DeviceType::Cpu, i)) {
            scalar += c.read("FP_SCALAR").unwrap();
            vector += c.read("FP_VECTOR").unwrap();
        }
        let flops = scalar as f64 + 4.0 * vector as f64;
        let want = 1e11 * 600.0;
        assert!((flops - want).abs() / want < 0.01, "flops={flops}");
    }

    #[test]
    fn advance_tracks_lustre_and_ib() {
        let mut n = SimNode::new("c401-101", NodeTopology::stampede());
        n.advance(SimDuration::from_secs(100), &busy_demand());
        let mdc = dev(&n, DeviceType::Mdc, 0);
        assert_eq!(mdc.read("reqs"), Some(10_000));
        assert_eq!(mdc.read("wait"), Some(5_000_000));
        let ib = dev(&n, DeviceType::Ib, 0);
        // 2e8 B/s * 100 s / 4 B per word = 5e9 words.
        assert_eq!(ib.read("port_xmit_data"), Some(5_000_000_000));
        // Second filesystem (work) untouched.
        let mdc_work = dev(&n, DeviceType::Mdc, 1);
        assert_eq!(mdc_work.read("reqs"), Some(0));
    }

    #[test]
    fn idle_node_only_accrues_idle_jiffies() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(SimDuration::from_secs(60), &NodeDemand::idle());
        let st = dev(&n, DeviceType::Cpustat, 0);
        assert_eq!(st.read("user"), Some(0));
        let idle = st.read("idle").unwrap();
        assert!(idle >= 5900, "idle={idle}"); // ~59.88 s of jiffies
    }

    #[test]
    fn msr_reads_match_device_state() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(SimDuration::from_secs(600), &busy_demand());
        let via_msr = n.read_msr(0, MSR_FIXED_CTR0).unwrap();
        let via_dev = dev(&n, DeviceType::Cpu, 0).read("FIXED_CTR0").unwrap();
        assert_eq!(via_msr, via_dev);
        // PMC0 is FP_SCALAR (schema index 3).
        assert_eq!(
            n.read_msr(5, MSR_PMC0),
            dev(&n, DeviceType::Cpu, 5).read("FP_SCALAR")
        );
        // RAPL via any CPU of socket 1.
        assert_eq!(
            n.read_msr(8, MSR_PKG_ENERGY_STATUS),
            dev(&n, DeviceType::Rapl, 1).read("MSR_PKG_ENERGY_STATUS")
        );
        // Every address lands on the schema position of its event.
        let cpu_events = [
            (MSR_FIXED_CTR0, "FIXED_CTR0"),
            (MSR_FIXED_CTR1, "FIXED_CTR1"),
            (MSR_FIXED_CTR2, "FIXED_CTR2"),
            (MSR_PMC0 + 1, "FP_VECTOR"),
            (MSR_PMC0 + 2, "LOAD_ALL"),
            (MSR_PMC0 + 3, "LOAD_L1_HIT"),
            (MSR_PMC0 + 4, "LOAD_L2_HIT"),
            (MSR_PMC0 + 5, "LOAD_LLC_HIT"),
        ];
        for (addr, ev) in cpu_events {
            let want = dev(&n, DeviceType::Cpu, 3).read(ev);
            assert!(want.is_some_and(|v| v > 0), "{ev}");
            assert_eq!(n.read_msr(3, addr), want, "{ev}");
        }
        assert_eq!(n.read_msr(3, MSR_PMC0 + 6), None, "past the schema");
        for (addr, ev) in [
            (MSR_PKG_ENERGY_STATUS, "MSR_PKG_ENERGY_STATUS"),
            (MSR_PP0_ENERGY_STATUS, "MSR_PP0_ENERGY_STATUS"),
            (MSR_DRAM_ENERGY_STATUS, "MSR_DRAM_ENERGY_STATUS"),
        ] {
            assert_eq!(
                n.read_msr(0, addr),
                dev(&n, DeviceType::Rapl, 0).read(ev),
                "{ev}"
            );
        }
        for (uncore, dt) in [
            (UncoreDev::Imc, DeviceType::Imc),
            (UncoreDev::Qpi, DeviceType::Qpi),
            (UncoreDev::Cbo, DeviceType::Cbo),
        ] {
            let all = dev(&n, dt, 1).read_all();
            for (i, want) in all.iter().enumerate() {
                assert_eq!(n.read_pci_counter(1, uncore, i), Some(*want));
            }
            assert_eq!(n.read_pci_counter(1, uncore, all.len()), None);
        }
        assert_eq!(n.read_msr(99, MSR_FIXED_CTR0), None);
        assert_eq!(n.read_msr(0, 0xdead), None);
    }

    #[test]
    fn crash_stops_everything_and_reboot_resets() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.spawn_process("wrf.exe", 5000, 1, u64::MAX);
        n.advance(SimDuration::from_secs(60), &busy_demand());
        let before = dev(&n, DeviceType::Cpu, 0).read("FIXED_CTR0").unwrap();
        assert!(before > 0);
        n.crash();
        assert!(n.read_msr(0, MSR_FIXED_CTR0).is_none());
        n.advance(SimDuration::from_secs(60), &busy_demand());
        assert!(n.processes().is_empty());
        n.reboot();
        assert_eq!(n.boot_count(), 2);
        assert_eq!(dev(&n, DeviceType::Cpu, 0).read("FIXED_CTR0"), Some(0));
        // MemTotal gauge restored after reboot.
        assert!(dev(&n, DeviceType::Mem, 0).read("MemTotal").unwrap() > 0);
    }

    /// The busy demand on the first `active` cores.
    fn on(active: usize) -> NodeDemand {
        NodeDemand {
            active_cores: active,
            ..busy_demand()
        }
    }

    /// Every CPU's `dt` registers as a read sees them.
    fn per_cpu(n: &SimNode, dt: DeviceType) -> Vec<Vec<u64>> {
        (0..count(n, dt))
            .map(|c| dev(n, dt, c).read_all())
            .collect()
    }

    const MINUTE: SimDuration = SimDuration::from_secs(60);

    #[test]
    fn the_lockstep_groups_fit_the_padding() {
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<SimNode>(), 520);
    }

    #[test]
    fn a_busy_step_adds_one_row_for_the_whole_group() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(MINUTE, &on(16));
        assert_eq!((n.cpu_group, n.cpustat_group), (16, 16));
        for dt in [DeviceType::Cpu, DeviceType::Cpustat] {
            let regs = per_cpu(&n, dt);
            assert!(regs.iter().all(|r| *r == regs[0]), "{dt}: {regs:?}");
            assert!(regs[0].iter().any(|&v| v > 0), "{dt}");
            // Only the group's last block was written.
            let own = |c: usize| n.devices[dt as usize][c].read_all();
            assert!(own(0).iter().chain(&own(14)).all(|&v| v == 0));
            assert_eq!(own(15), regs[0]);
        }
        let inst = n.read_msr(0, MSR_FIXED_CTR0);
        assert!(inst.is_some_and(|v| v > 0));
        assert!((0..16).all(|c| n.read_msr(c, MSR_FIXED_CTR0) == inst));
    }

    #[test]
    fn a_step_ending_inside_the_group_splits_it_there() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(MINUTE, &on(16));
        let (cpu1, stat1) = (
            per_cpu(&n, DeviceType::Cpu),
            per_cpu(&n, DeviceType::Cpustat),
        );
        n.advance(MINUTE, &on(3));
        assert_eq!((n.cpu_group, n.cpustat_group), (3, 3));
        let (cpu2, stat2) = (
            per_cpu(&n, DeviceType::Cpu),
            per_cpu(&n, DeviceType::Cpustat),
        );
        // The three busy CPUs moved on together; the idle ones kept the
        // first step's counts — their copy of CPU 0's registers.
        assert!(cpu2[..3].iter().all(|r| *r == cpu2[0] && *r != cpu1[0]));
        assert!(cpu2[3..].iter().all(|r| *r == cpu1[0]));
        assert_eq!(n.read_msr(9, MSR_FIXED_CTR0), Some(cpu1[0][0]));
        let (user, idle) = (0, 3);
        assert!(stat2[3..]
            .iter()
            .all(|r| r[user] == stat1[0][user] && r[idle] > stat1[0][idle]));
        assert!(stat2[..3].iter().all(|r| r[user] > stat1[0][user]));
        // Each instance now takes its own row.
        n.advance(MINUTE, &on(16));
        let cpu3 = per_cpu(&n, DeviceType::Cpu);
        assert!(cpu3[3..].iter().all(|r| *r == cpu3[3] && *r != cpu3[0]));
    }

    #[test]
    fn freezing_a_cpu_of_the_group_splits_it_at_that_cpu() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(MINUTE, &on(16));
        let first = dev(&n, DeviceType::Cpu, 0).read_all();
        assert_eq!(n.set_frozen(DeviceType::Cpu, "5", true), 1);
        assert_eq!((n.cpu_group, n.cpustat_group), (5, 16));
        n.advance(MINUTE, &on(16));
        let regs = per_cpu(&n, DeviceType::Cpu);
        assert!(dev(&n, DeviceType::Cpu, 5).is_frozen());
        assert_eq!(regs[5], first, "frozen on its copy of CPU 0's registers");
        assert!(regs
            .iter()
            .enumerate()
            .all(|(c, r)| c == 5 || *r == regs[0]));
        assert_ne!(regs[0], first);
        // Freezing CPU 0 takes every other CPU out of the group.
        assert_eq!(n.set_frozen(DeviceType::Cpustat, "0", true), 1);
        assert_eq!(n.cpustat_group, 1);
        n.advance(MINUTE, &on(16));
        let stats = per_cpu(&n, DeviceType::Cpustat);
        assert!(stats[1..].iter().all(|r| *r == stats[1] && *r != stats[0]));
    }

    #[test]
    fn a_thawed_cpu_steps_again_from_where_it_froze() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        let mut twin = n.clone();
        n.advance(MINUTE, &on(16));
        twin.advance(MINUTE, &on(16));
        n.set_frozen(DeviceType::Cpu, "0", true);
        assert_eq!(n.cpu_group, 1);
        n.set_frozen(DeviceType::Cpu, "0", false);
        n.advance(MINUTE, &on(16));
        twin.advance(MINUTE, &on(16));
        assert!(!dev(&n, DeviceType::Cpu, 0).is_frozen());
        assert_eq!(
            per_cpu(&n, DeviceType::Cpu),
            per_cpu(&twin, DeviceType::Cpu)
        );
    }

    #[test]
    fn a_no_op_thaw_keeps_the_group() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(MINUTE, &on(16));
        assert_eq!(n.set_frozen(DeviceType::Cpu, "5", false), 1);
        assert_eq!(n.set_frozen(DeviceType::Cpustat, "0", false), 1);
        assert_eq!((n.cpu_group, n.cpustat_group), (16, 16));
        n.advance(MINUTE, &on(16));
        let regs = per_cpu(&n, DeviceType::Cpu);
        assert!(regs.iter().all(|r| *r == regs[0]));
    }

    #[test]
    fn a_crash_keeps_the_group_and_its_registers() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(MINUTE, &on(16));
        let before = per_cpu(&n, DeviceType::Cpu);
        n.crash();
        n.advance(MINUTE, &on(3));
        assert_eq!((n.cpu_group, n.cpustat_group), (16, 16));
        assert_eq!(n.read_msr(7, MSR_FIXED_CTR0), None);
        assert_eq!(per_cpu(&n, DeviceType::Cpu), before);
    }

    #[test]
    fn reboot_reforms_a_split_group() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        n.advance(MINUTE, &on(3));
        n.set_frozen(DeviceType::Cpustat, "1", true);
        assert_eq!((n.cpu_group, n.cpustat_group), (3, 1));
        n.crash();
        n.reboot();
        assert_eq!((n.cpu_group, n.cpustat_group), (16, 16));
        for dt in [DeviceType::Cpu, DeviceType::Cpustat] {
            assert!(per_cpu(&n, dt).iter().flatten().all(|&v| v == 0), "{dt}");
            assert!((0..16).all(|c| !dev(&n, dt, c).is_frozen()), "{dt}");
        }
        n.advance(MINUTE, &on(16));
        let regs = per_cpu(&n, DeviceType::Cpustat);
        assert!(regs.iter().all(|r| *r == regs[0]) && regs[0][0] > 0);
    }

    #[test]
    fn process_lifecycle_and_hwm() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        let pid = n.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        let mut d = busy_demand();
        d.mem_used_bytes = 24 << 30;
        n.advance(SimDuration::from_secs(60), &d);
        let p = &n.processes()[0];
        let high = p.vm_hwm_kib;
        assert!(high > 20 << 20, "hwm={high}"); // > 20 GiB in KiB
                                                // Memory drops; HWM must not.
        d.mem_used_bytes = 1 << 30;
        n.advance(SimDuration::from_secs(60), &d);
        let p = &n.processes()[0];
        assert!(p.vm_rss_kib < high);
        assert_eq!(p.vm_hwm_kib, high);
        assert!(p.utime_jiffies > 0);
        assert!(n.end_process(pid));
        assert!(!n.end_process(pid));
    }

    #[test]
    fn rapl_wraps_within_an_hour() {
        let mut n = SimNode::new("c1-1", NodeTopology::stampede());
        let d = busy_demand();
        // Full package power ≈ 109 W ⇒ raw units/s ≈ 1.79e6; the 32-bit
        // register wraps every ~2400 s. Advance 2 h in 10 min steps and
        // confirm the register reading stays below 2^32.
        for _ in 0..12 {
            n.advance(SimDuration::from_secs(600), &d);
        }
        let r = dev(&n, DeviceType::Rapl, 0)
            .read("MSR_PKG_ENERGY_STATUS")
            .unwrap();
        assert!(r < 1u64 << 32);
        let total = dev(&n, DeviceType::Rapl, 0).totals()[0];
        assert!(total > 1u64 << 32, "total={total} should have wrapped");
    }
}
