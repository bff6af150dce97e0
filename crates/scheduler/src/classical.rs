//! Classical-job placement: the *filter* stage of Kubernetes' two-stage
//! filtering–scoring algorithm (§7), which drops the nodes that cannot
//! satisfy a job's resource requests. Nothing allocates classical capacity
//! (the orchestrator models no classical contention), so every node that
//! passes the filter would score the same and placement is first fit.

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
}

impl ClassicalNode {
    /// A standard VM node (Table 1: 4–32 vCPUs, 16–64 GB RAM).
    pub fn standard_vm(name: impl Into<String>) -> Self {
        ClassicalNode { name: name.into(), cpus: 32, memory_gb: 64, accelerators: 0 }
    }

    /// A high-end accelerated node (Table 1: 64+ vCPUs, GPUs).
    pub fn high_end_vm(name: impl Into<String>) -> Self {
        ClassicalNode { name: name.into(), cpus: 128, memory_gb: 1024, accelerators: 4 }
    }

    /// Whether the node has the capacity `request` asks for.
    fn fits(&self, request: &ClassicalRequest) -> bool {
        self.cpus >= request.cpus
            && self.memory_gb >= request.memory_gb
            && self.accelerators >= request.accelerators
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
}

/// Filter placement: the index in `nodes` of the first node that can satisfy
/// the request, or `None` if no node fits.
pub fn place(nodes: &[ClassicalNode], request: &ClassicalRequest) -> Option<usize> {
    nodes.iter().position(|n| n.fits(request))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vec<ClassicalNode> {
        vec![
            ClassicalNode::standard_vm("vm-0"),
            ClassicalNode::standard_vm("vm-1"),
            ClassicalNode::high_end_vm("gpu"),
        ]
    }

    #[test]
    fn filter_removes_nodes_without_capacity() {
        let nodes = cluster();
        let placed = place(&nodes, &ClassicalRequest { cpus: 64, memory_gb: 32, accelerators: 0 });
        assert_eq!(placed, Some(2), "only the high-end node has 64 vCPUs");
    }

    #[test]
    fn gpu_requests_only_fit_accelerated_nodes() {
        let nodes = cluster();
        let gpu = ClassicalRequest { cpus: 16, memory_gb: 64, accelerators: 1 };
        assert_eq!(place(&nodes, &gpu), Some(2));
    }

    #[test]
    fn placement_is_first_fit() {
        let nodes = cluster();
        assert_eq!(place(&nodes, &ClassicalRequest::small()), Some(0));
        assert_eq!(place(&nodes[1..], &ClassicalRequest::small()), Some(0));
    }

    #[test]
    fn no_fit_returns_none() {
        let nodes = vec![ClassicalNode::standard_vm("only")];
        let placed = place(&nodes, &ClassicalRequest { cpus: 64, memory_gb: 8, accelerators: 0 });
        assert_eq!(placed, None);
    }
}
