//! Classical-job scheduling: the standard two-stage *filtering–scoring*
//! algorithm of Kubernetes (§7): filter out nodes that cannot satisfy the
//! job's resource requests, score the remainder with a pluggable policy, and
//! pick the best-scoring node.

/// A classical worker node (CPU server, possibly with accelerators).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicalNode {
    /// Node name.
    pub name: String,
    /// Total vCPUs.
    pub cpus: u32,
    /// Total memory in GB.
    pub memory_gb: u32,
    /// Number of GPUs/FPGAs attached.
    pub accelerators: u32,
    /// vCPUs currently allocated.
    pub cpus_used: u32,
    /// Memory currently allocated in GB.
    pub memory_used_gb: u32,
    /// Accelerators currently allocated.
    pub accelerators_used: u32,
}

impl ClassicalNode {
    /// A standard VM node (Table 1: 4–32 vCPUs, 16–64 GB RAM).
    pub fn standard_vm(name: impl Into<String>) -> Self {
        ClassicalNode {
            name: name.into(),
            cpus: 32,
            memory_gb: 64,
            accelerators: 0,
            cpus_used: 0,
            memory_used_gb: 0,
            accelerators_used: 0,
        }
    }

    /// A high-end accelerated node (Table 1: 64+ vCPUs, GPUs).
    pub fn high_end_vm(name: impl Into<String>) -> Self {
        ClassicalNode {
            name: name.into(),
            cpus: 128,
            memory_gb: 1024,
            accelerators: 4,
            cpus_used: 0,
            memory_used_gb: 0,
            accelerators_used: 0,
        }
    }

    /// Free vCPUs.
    pub fn cpus_free(&self) -> u32 {
        self.cpus.saturating_sub(self.cpus_used)
    }

    /// Free memory in GB.
    pub fn memory_free_gb(&self) -> u32 {
        self.memory_gb.saturating_sub(self.memory_used_gb)
    }

    /// Free accelerators.
    pub fn accelerators_free(&self) -> u32 {
        self.accelerators.saturating_sub(self.accelerators_used)
    }

    /// Fraction of capacity currently allocated (mean over CPU and memory).
    pub fn utilisation(&self) -> f64 {
        let cpu = self.cpus_used as f64 / self.cpus.max(1) as f64;
        let mem = self.memory_used_gb as f64 / self.memory_gb.max(1) as f64;
        (cpu + mem) / 2.0
    }

    /// Reserve resources for a job (used after placement).
    pub fn allocate(&mut self, request: &ClassicalRequest) {
        self.cpus_used += request.cpus;
        self.memory_used_gb += request.memory_gb;
        self.accelerators_used += request.accelerators;
    }

    /// Release resources after a job finishes.
    pub fn release(&mut self, request: &ClassicalRequest) {
        self.cpus_used = self.cpus_used.saturating_sub(request.cpus);
        self.memory_used_gb = self.memory_used_gb.saturating_sub(request.memory_gb);
        self.accelerators_used = self.accelerators_used.saturating_sub(request.accelerators);
    }
}

/// Resource request of one classical job (from the deployment configuration,
/// e.g. Listing 1's `nvidia.com/gpu: 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassicalRequest {
    /// Requested vCPUs.
    pub cpus: u32,
    /// Requested memory in GB.
    pub memory_gb: u32,
    /// Requested accelerators.
    pub accelerators: u32,
}

impl ClassicalRequest {
    /// A small CPU-only request (default for error-mitigation post-processing).
    pub fn small() -> Self {
        ClassicalRequest { cpus: 4, memory_gb: 8, accelerators: 0 }
    }

    /// A GPU-accelerated request (e.g. circuit-knitting reconstruction).
    pub fn accelerated() -> Self {
        ClassicalRequest { cpus: 16, memory_gb: 64, accelerators: 1 }
    }
}

/// Node-scoring policy used after filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoringPolicy {
    /// Prefer the least-utilised node (spreads load, the Kubernetes default).
    LeastAllocated,
    /// Prefer the most-utilised node that still fits (bin-packs work).
    MostAllocated,
}

/// Filter stage: nodes that can satisfy the request.
pub fn filter<'a>(
    nodes: &'a [ClassicalNode],
    request: &ClassicalRequest,
) -> Vec<&'a ClassicalNode> {
    nodes
        .iter()
        .filter(|n| {
            n.cpus_free() >= request.cpus
                && n.memory_free_gb() >= request.memory_gb
                && n.accelerators_free() >= request.accelerators
        })
        .collect()
}

/// Two-stage filter–score placement. Returns the index of the chosen node in
/// `nodes`, or `None` if no node fits.
pub fn place(
    nodes: &[ClassicalNode],
    request: &ClassicalRequest,
    policy: ScoringPolicy,
) -> Option<usize> {
    let candidates: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.cpus_free() >= request.cpus
                && n.memory_free_gb() >= request.memory_gb
                && n.accelerators_free() >= request.accelerators
        })
        .map(|(i, _)| i)
        .collect();
    match policy {
        ScoringPolicy::LeastAllocated => candidates
            .into_iter()
            .min_by(|&a, &b| nodes[a].utilisation().total_cmp(&nodes[b].utilisation())),
        ScoringPolicy::MostAllocated => candidates
            .into_iter()
            .max_by(|&a, &b| nodes[a].utilisation().total_cmp(&nodes[b].utilisation())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vec<ClassicalNode> {
        let mut busy = ClassicalNode::standard_vm("busy");
        busy.allocate(&ClassicalRequest { cpus: 24, memory_gb: 48, accelerators: 0 });
        vec![busy, ClassicalNode::standard_vm("idle"), ClassicalNode::high_end_vm("gpu")]
    }

    #[test]
    fn filter_removes_nodes_without_capacity() {
        let nodes = cluster();
        let filtered =
            filter(&nodes, &ClassicalRequest { cpus: 16, memory_gb: 32, accelerators: 0 });
        let names: Vec<&str> = filtered.iter().map(|n| n.name.as_str()).collect();
        assert!(!names.contains(&"busy"));
        assert!(names.contains(&"idle"));
        assert!(names.contains(&"gpu"));
    }

    #[test]
    fn gpu_requests_only_fit_accelerated_nodes() {
        let nodes = cluster();
        let placed = place(&nodes, &ClassicalRequest::accelerated(), ScoringPolicy::LeastAllocated);
        assert_eq!(placed, Some(2));
    }

    #[test]
    fn least_allocated_prefers_the_idle_node() {
        let nodes = cluster();
        let placed =
            place(&nodes, &ClassicalRequest::small(), ScoringPolicy::LeastAllocated).unwrap();
        // Both "idle" and "gpu" are at zero utilisation; either is acceptable,
        // but never the busy node.
        assert_ne!(nodes[placed].name, "busy");
        assert_eq!(nodes[placed].utilisation(), 0.0);
    }

    #[test]
    fn most_allocated_bin_packs_onto_the_busy_node() {
        let nodes = cluster();
        let placed =
            place(&nodes, &ClassicalRequest::small(), ScoringPolicy::MostAllocated).unwrap();
        assert_eq!(nodes[placed].name, "busy");
    }

    #[test]
    fn no_fit_returns_none() {
        let nodes = vec![ClassicalNode::standard_vm("only")];
        let placed = place(
            &nodes,
            &ClassicalRequest { cpus: 64, memory_gb: 8, accelerators: 0 },
            ScoringPolicy::LeastAllocated,
        );
        assert_eq!(placed, None);
    }

    #[test]
    fn allocate_and_release_are_inverse() {
        let mut node = ClassicalNode::standard_vm("n");
        let req = ClassicalRequest::small();
        node.allocate(&req);
        assert_eq!(node.cpus_free(), 28);
        assert!(node.utilisation() > 0.0);
        node.release(&req);
        assert_eq!(node.cpus_free(), 32);
        assert_eq!(node.utilisation(), 0.0);
    }
}
