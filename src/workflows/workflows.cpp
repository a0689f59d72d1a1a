#include "workflows/workflows.hpp"

#include <algorithm>

namespace spmap {

const char* workflow_family_name(WorkflowFamily family) {
  switch (family) {
    case WorkflowFamily::Genome1000: return "1000genome";
    case WorkflowFamily::Blast: return "blast";
    case WorkflowFamily::Bwa: return "bwa";
    case WorkflowFamily::Cycles: return "cycles";
    case WorkflowFamily::Epigenomics: return "epigenomics";
    case WorkflowFamily::Montage: return "montage";
    case WorkflowFamily::Seismology: return "seismology";
    case WorkflowFamily::Soykb: return "soykb";
    case WorkflowFamily::Srasearch: return "srasearch";
  }
  return "?";
}

std::vector<WorkflowFamily> all_workflow_families() {
  return {WorkflowFamily::Genome1000, WorkflowFamily::Blast,
          WorkflowFamily::Bwa,        WorkflowFamily::Cycles,
          WorkflowFamily::Epigenomics, WorkflowFamily::Montage,
          WorkflowFamily::Seismology, WorkflowFamily::Soykb,
          WorkflowFamily::Srasearch};
}

WorkflowFamily workflow_family_from_name(const std::string& name) {
  std::string known;
  for (const WorkflowFamily f : all_workflow_families()) {
    if (name == workflow_family_name(f)) return f;
    if (!known.empty()) known += ", ";
    known += workflow_family_name(f);
  }
  throw Error("unknown workflow family '" + name + "' (accepted: " + known +
              ")");
}

namespace {

/// Incremental workflow assembly: tasks carry a per-type complexity
/// multiplier; attributes follow the Section IV-B augmentation on top.
class Builder {
 public:
  /// `compute_scale` scales task complexity (ops per data point);
  /// `area_scale` scales FPGA area demand. Area is derived from the
  /// *unscaled* complexity draw: a compute-light task still occupies its
  /// full circuit footprint in fabric.
  Builder(std::string name, Rng& rng, double compute_scale,
          double area_scale = 1.0)
      : name_(std::move(name)),
        rng_(rng),
        compute_scale_(compute_scale),
        area_scale_(area_scale) {}

  NodeId task(const char* type, double complexity_multiplier) {
    const NodeId id = dag_.add_node(type);
    attrs_.resize(dag_.node_count());
    const double raw = rng_.lognormal(2.0, 0.5);
    attrs_.complexity[id.v] = compute_scale_ * complexity_multiplier * raw;
    attrs_.streamability[id.v] = rng_.lognormal(2.0, 0.5);
    attrs_.parallelizability[id.v] =
        rng_.chance(0.5) ? 1.0 : rng_.uniform();
    attrs_.area[id.v] = area_scale_ * complexity_multiplier * raw;
    return id;
  }

  /// A host-I/O-bound task (staging, archive reads/writes, concatenation):
  /// essentially serial and not expressible as a dataflow pipeline, so
  /// accelerators cannot help it. Such tasks anchor their neighborhood to
  /// the CPU, which is what makes the bwa/seismology families resist
  /// acceleration (paper Section IV-D).
  NodeId io_task(const char* type, double complexity_multiplier) {
    const NodeId id = task(type, complexity_multiplier);
    attrs_.streamability[id.v] = 0.02 * rng_.lognormal(2.0, 0.5);
    attrs_.parallelizability[id.v] = 0.3 * rng_.uniform();
    return id;
  }

  void edge(NodeId from, NodeId to, double mb) {
    // Jitter data volumes around the family profile.
    dag_.add_edge(from, to, mb * rng_.lognormal(0.0, 0.25));
  }

  WorkflowInstance finish() {
    dag_.validate();
    attrs_.validate(dag_);
    return WorkflowInstance{std::move(name_), std::move(dag_),
                            std::move(attrs_)};
  }

  Rng& rng() { return rng_; }

 private:
  std::string name_;
  Rng& rng_;
  double compute_scale_;
  double area_scale_;
  Dag dag_;
  TaskAttrs attrs_;
};

WorkflowInstance make_1000genome(std::size_t width, Rng& rng,
                                 std::string name) {
  Builder b(std::move(name), rng, 1.0);
  const std::size_t chromosomes = std::max<std::size_t>(1, width / 10);
  const std::size_t chunks = std::max<std::size_t>(2, width / chromosomes);
  for (std::size_t c = 0; c < chromosomes; ++c) {
    const NodeId sifting = b.task("sifting", 0.8);
    const NodeId merge = b.task("individuals_merge", 1.5);
    for (std::size_t k = 0; k < chunks; ++k) {
      const NodeId ind = b.task("individuals", 2.0);
      b.edge(ind, merge, 80.0);
    }
    const NodeId overlap = b.task("mutation_overlap", 1.2);
    const NodeId freq = b.task("frequency", 1.2);
    b.edge(merge, overlap, 120.0);
    b.edge(merge, freq, 120.0);
    b.edge(sifting, overlap, 30.0);
    b.edge(sifting, freq, 30.0);
  }
  return b.finish();
}

WorkflowInstance make_blast(std::size_t width, Rng& rng, std::string name) {
  // Database scans: a wide, data-bound fan-out behind host-side staging.
  // Accelerating single scans barely pays once the shared link serializes
  // the database shards — list schedulers that trust their per-edge
  // transfer estimates (HEFT/PEFT) scatter the scans and end up *worse*
  // than the all-CPU mapping (Table I shows them at 0 %).
  Builder b(std::move(name), rng, 0.35, /*area_scale=*/2.0);
  const NodeId split = b.io_task("split_fasta", 0.6);
  const NodeId merge = b.io_task("cat_blast", 0.5);
  const NodeId post = b.io_task("cleanup", 0.4);
  for (std::size_t k = 0; k < width; ++k) {
    const NodeId blast = b.task("blastall", 3.0);
    b.edge(split, blast, 180.0);
    b.edge(blast, merge, 120.0);
  }
  b.edge(merge, post, 120.0);
  return b.finish();
}

WorkflowInstance make_bwa(std::size_t width, Rng& rng, std::string name) {
  // Negative control: data-heavy, compute-light alignment; moving any task
  // costs more sender-side transfer time than its execution saves, and the
  // large genome-index circuit footprint (area_scale 5) keeps more than a
  // couple of tasks from fitting into the FPGA fabric at once.
  Builder b(std::move(name), rng, 0.04, /*area_scale=*/5.0);
  const NodeId index = b.io_task("bwa_index", 1.0);
  const NodeId reduce = b.io_task("fastq_reduce", 0.5);
  const NodeId cat = b.io_task("cat_bwa", 0.5);
  for (std::size_t k = 0; k < width; ++k) {
    const NodeId align = b.task("bwa_align", 1.0);
    b.edge(index, align, 400.0);
    b.edge(reduce, align, 400.0);
    b.edge(align, cat, 250.0);
  }
  return b.finish();
}

WorkflowInstance make_cycles(std::size_t width, Rng& rng, std::string name) {
  // Crop-simulation ensembles: many medium chains over sizable state
  // files. Data-bound enough that HEFT/PEFT's contention-blind scattering
  // backfires (Table I: 0 %), while evaluation-guided mappers still find
  // profitable groups.
  Builder b(std::move(name), rng, 0.45, /*area_scale=*/1.5);
  const NodeId plots = b.io_task("cycles_plots", 1.0);
  for (std::size_t e = 0; e < width; ++e) {
    const NodeId baseline = b.task("baseline_cycles", 1.5);
    const NodeId sim = b.task("cycles", 2.5);
    const NodeId fert = b.task("fertilizer_increase_output_parser", 0.8);
    const NodeId parser = b.task("cycles_output_summary", 0.8);
    b.edge(baseline, sim, 120.0);
    b.edge(sim, fert, 140.0);
    b.edge(sim, parser, 140.0);
    b.edge(fert, plots, 50.0);
    b.edge(parser, plots, 50.0);
  }
  return b.finish();
}

WorkflowInstance make_epigenomics(std::size_t width, Rng& rng,
                                  std::string name) {
  // Parallel lanes of long sequential chains — almost perfectly
  // series-parallel; the paper's showcase for SP decomposition mapping.
  Builder b(std::move(name), rng, 1.0);
  const std::size_t lanes = std::max<std::size_t>(2, width / 6);
  const std::size_t chunks = std::max<std::size_t>(2, width / lanes);
  const NodeId global_merge = b.task("mapMergeGlobal", 1.5);
  for (std::size_t l = 0; l < lanes; ++l) {
    const NodeId split = b.task("fastqSplit", 0.6);
    const NodeId lane_merge = b.task("mapMerge", 1.2);
    for (std::size_t k = 0; k < chunks; ++k) {
      const NodeId filter = b.task("filterContams", 1.2);
      const NodeId sol = b.task("sol2sanger", 0.9);
      const NodeId bfq = b.task("fastq2bfq", 0.9);
      const NodeId map = b.task("map", 3.0);
      b.edge(split, filter, 100.0);
      b.edge(filter, sol, 100.0);
      b.edge(sol, bfq, 100.0);
      b.edge(bfq, map, 100.0);
      b.edge(map, lane_merge, 60.0);
    }
    b.edge(lane_merge, global_merge, 120.0);
  }
  const NodeId index = b.task("maqIndex", 1.8);
  const NodeId pileup = b.task("pileup", 1.5);
  b.edge(global_merge, index, 200.0);
  b.edge(index, pileup, 200.0);
  return b.finish();
}

WorkflowInstance make_montage(std::size_t width, Rng& rng, std::string name) {
  // Mosaicking kernels are compact arithmetic pipelines: large compute
  // demand (mAdd/mBgModel dominate the makespan) but a modest circuit
  // footprint, so the dominant tail tasks remain FPGA-eligible.
  Builder b(std::move(name), rng, 1.0, /*area_scale=*/0.3);
  std::vector<NodeId> projects;
  for (std::size_t k = 0; k < width; ++k) {
    projects.push_back(b.task("mProject", 2.0));
  }
  // Pairwise difference fits on overlapping neighbors (~2 per image).
  const NodeId concat = b.task("mConcatFit", 1.0);
  for (std::size_t k = 0; k < width; ++k) {
    const NodeId diff = b.task("mDiffFit", 0.7);
    b.edge(projects[k], diff, 40.0);
    b.edge(projects[(k + 1) % width], diff, 40.0);
    b.edge(diff, concat, 10.0);
  }
  // Heavy tail: background model, per-image correction, final mosaic.
  const NodeId bgmodel = b.task("mBgModel", 15.0);
  b.edge(concat, bgmodel, 30.0);
  const NodeId imgtbl = b.task("mImgtbl", 1.0);
  for (std::size_t k = 0; k < width; ++k) {
    const NodeId bg = b.task("mBackground", 1.0);
    b.edge(projects[k], bg, 60.0);
    b.edge(bgmodel, bg, 20.0);
    b.edge(bg, imgtbl, 60.0);
  }
  const NodeId add = b.task("mAdd", 30.0);
  const NodeId shrink = b.task("mShrink", 3.0);
  const NodeId jpeg = b.task("mJPEG", 1.0);
  b.edge(imgtbl, add, 400.0);
  b.edge(add, shrink, 400.0);
  b.edge(shrink, jpeg, 100.0);
  return b.finish();
}

WorkflowInstance make_seismology(std::size_t width, Rng& rng,
                                 std::string name) {
  // Negative control: tiny data-light tasks, accelerator latency dominates.
  // The stage-in root models reading the seismogram archive on the host:
  // farming deconvolutions out to an accelerator costs host-side sends.
  Builder b(std::move(name), rng, 0.05);
  const NodeId stage_in = b.io_task("stage_in", 0.5);
  const NodeId sift = b.io_task("siftSTFByMisfit", 1.0);
  for (std::size_t k = 0; k < width; ++k) {
    const NodeId decon = b.task("sG1IterDecon", 1.0);
    b.edge(stage_in, decon, 2.0);
    b.edge(decon, sift, 2.0);
  }
  return b.finish();
}

WorkflowInstance make_soykb(std::size_t width, Rng& rng, std::string name) {
  // Variant-calling pipelines are dominated by I/O-bound SAM/BAM shuffling;
  // only small acceleration margins exist (Table I: 1-3 %).
  Builder b(std::move(name), rng, 0.18, /*area_scale=*/2.0);
  const NodeId combine = b.io_task("combine_variants", 1.5);
  for (std::size_t s = 0; s < width; ++s) {
    const NodeId align = b.task("alignment_to_reference", 2.5);
    const NodeId sort = b.task("sort_sam", 0.8);
    const NodeId dedup = b.task("dedup", 0.8);
    const NodeId add = b.task("add_replace", 0.6);
    const NodeId target = b.task("realign_target_creator", 1.2);
    const NodeId realign = b.task("indel_realign", 1.5);
    b.edge(align, sort, 90.0);
    b.edge(sort, dedup, 90.0);
    b.edge(dedup, add, 90.0);
    b.edge(add, target, 90.0);
    b.edge(target, realign, 90.0);
    // Two haplotype callers per sample.
    for (int h = 0; h < 2; ++h) {
      const NodeId caller = b.task("haplotype_caller", 2.0);
      b.edge(realign, caller, 60.0);
      b.edge(caller, combine, 30.0);
    }
  }
  const NodeId genotype = b.task("genotype_gvcfs", 2.0);
  const NodeId filtering = b.task("snp_filtering", 0.8);
  b.edge(combine, genotype, 120.0);
  b.edge(genotype, filtering, 120.0);
  return b.finish();
}

WorkflowInstance make_srasearch(std::size_t width, Rng& rng,
                                std::string name) {
  Builder b(std::move(name), rng, 1.0);
  const NodeId merge = b.task("merge_results", 0.8);
  for (std::size_t k = 0; k < width; ++k) {
    const NodeId dump = b.task("fasterq_dump", 1.0);
    const NodeId search = b.task("search", 2.2);
    b.edge(dump, search, 100.0);
    b.edge(search, merge, 40.0);
  }
  return b.finish();
}

}  // namespace

WorkflowInstance generate_workflow(WorkflowFamily family, std::size_t width,
                                   Rng& rng) {
  require(width >= 1, "generate_workflow: width must be >= 1");
  std::string name = std::string(workflow_family_name(family)) + "-" +
                     std::to_string(width);
  switch (family) {
    case WorkflowFamily::Genome1000:
      return make_1000genome(width, rng, std::move(name));
    case WorkflowFamily::Blast:
      return make_blast(width, rng, std::move(name));
    case WorkflowFamily::Bwa: return make_bwa(width, rng, std::move(name));
    case WorkflowFamily::Cycles:
      return make_cycles(width, rng, std::move(name));
    case WorkflowFamily::Epigenomics:
      return make_epigenomics(width, rng, std::move(name));
    case WorkflowFamily::Montage:
      return make_montage(width, rng, std::move(name));
    case WorkflowFamily::Seismology:
      return make_seismology(width, rng, std::move(name));
    case WorkflowFamily::Soykb:
      return make_soykb(width, rng, std::move(name));
    case WorkflowFamily::Srasearch:
      return make_srasearch(width, rng, std::move(name));
  }
  throw Error("generate_workflow: unknown family");
}

}  // namespace spmap
