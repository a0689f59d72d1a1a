#pragma once
/// \file workflows.hpp
/// Synthetic scientific-workflow generators (paper Section IV-D).
///
/// The paper evaluates on the fixed WfCommons-derived benchmark set of
/// Sukhoroslov and Gorokhovskii [29] (nine workflow families, 150
/// instances). That dataset is not bundled here; instead, each family's
/// published structural skeleton is re-generated synthetically:
///
///  * 1000genome   — per-chromosome fan-out of `individuals` tasks feeding
///                   merge/sifting, then mutation-overlap and frequency
///                   analyses;
///  * blast        — split, embarrassingly parallel `blastall`, merge;
///  * bwa          — split, parallel alignment, concat (data-heavy, low
///                   compute: no algorithm finds an acceleration — used as
///                   the paper's negative control);
///  * cycles       — ensemble of independent crop-simulation chains with a
///                   shared summary stage;
///  * epigenomics  — several lanes of long sequential filter chains merged
///                   at the end (almost perfectly series-parallel — the
///                   showcase for SP decomposition);
///  * montage      — image projection fan-out, pairwise fit, background
///                   model bottleneck, re-projection, heavy tail-end
///                   mosaicking (a few end tasks dominate the makespan);
///  * seismology   — wide flat fan-in of tiny deconvolution tasks (second
///                   negative control);
///  * soykb        — genomics pipeline: wide alignment stage into long
///                   per-sample chains, joint genotyping tail;
///  * srasearch    — parallel sequence searches, pairwise merge.
///
/// Task complexity and data volumes follow per-family profiles; tasks are
/// additionally augmented with the random parallelizability/streamability
/// model of Section IV-B, as the paper does.

#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "graph/task_attrs.hpp"
#include "util/rng.hpp"

namespace spmap {

enum class WorkflowFamily {
  Genome1000,
  Blast,
  Bwa,
  Cycles,
  Epigenomics,
  Montage,
  Seismology,
  Soykb,
  Srasearch,
};

/// Lower-case family name as used in the paper's Table I.
const char* workflow_family_name(WorkflowFamily family);

/// All nine families in Table I order.
std::vector<WorkflowFamily> all_workflow_families();

/// Inverse of workflow_family_name. Throws spmap::Error listing the
/// accepted names on an unknown one.
WorkflowFamily workflow_family_from_name(const std::string& name);

struct WorkflowInstance {
  std::string name;  ///< e.g. "montage-50"
  Dag dag;
  TaskAttrs attrs;
};

/// Generates one instance. `width` scales the parallel breadth of the
/// family's skeleton (roughly: number of inputs / lanes / samples).
WorkflowInstance generate_workflow(WorkflowFamily family, std::size_t width,
                                   Rng& rng);

}  // namespace spmap
