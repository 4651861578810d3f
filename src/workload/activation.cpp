#include "workload/activation.h"

#include <cmath>

#include "util/error.h"
#include "util/names.h"

namespace optimus {

constexpr Named<Recompute> kRecomputeNames[] = {
    {"none", Recompute::None},
    {"selective", Recompute::Selective},
    {"full", Recompute::Full},
};

const char *
recomputeName(Recompute r)
{
    if (const char *name = nameOf(kRecomputeNames, r))
        return name;
    throw ModelError("unknown recompute strategy");
}

std::optional<Recompute>
recomputeFromName(std::string_view name)
{
    return findNamed(kRecomputeNames, name);
}

double
ActivationBreakdown::total() const
{
    return attentionLinear + scores + mlp + norms;
}

ActivationBreakdown
layerActivations(const TransformerConfig &cfg, const ActivationParams &p)
{
    cfg.validate();
    checkPositive(p.microbatch, "microbatch");
    checkPositive(p.seq, "seq");
    checkPositive(p.tensorParallel, "tensorParallel");
    checkPositive(p.activationBytes, "activationBytes");

    const double B = p.activationBytes;
    const double s = double(p.seq);
    const double b = double(p.microbatch);
    const double h = double(cfg.hiddenSize);
    const double f = double(cfg.ffnHidden);
    const double a = double(cfg.numHeads);
    const double kvh = double(cfg.numKvHeads);
    const double hd = double(cfg.headDim());
    const double t = double(p.tensorParallel);
    // Fraction kept by the parts TP does not shard; SP shards them too.
    const double sp = p.sequenceParallel ? 1.0 / t : 1.0;

    ActivationBreakdown out;

    // Two layer-norm inputs (the first is the layer input itself).
    out.norms = 2.0 * B * s * b * h * sp;
    out.input = B * s * b * h * sp;

    // Attention: QKV input + out-proj dropout mask are unsharded by
    // TP; Q, K, V and the context output Z shard across heads.
    double qkv_outputs = B * s * b * (h + 2.0 * kvh * hd) / t;
    double z = B * s * b * h / t;
    out.attentionLinear =
        (B * s * b * h + 1.0 * s * b * h) * sp + qkv_outputs + z;

    // Softmax output + dropout mask (1 byte) + dropout output: the
    // region selective recomputation drops (Eq. 2), sharded by heads.
    // FlashAttention never materializes it; only fp32 row statistics
    // (running max + normalizer) survive to the backward pass.
    if (p.flashAttention)
        out.scores = 2.0 * 4.0 * a * s * b / t;
    else
        out.scores = (2.0 * B + 1.0) * a * s * s * b / t;

    // MLP: fc1 input + output dropout mask unsharded; the f-wide
    // activations shard. SwiGLU stores gate, up and their product.
    // MoE processes (and stores) topK expert activations per token.
    double f_tensors = (cfg.mlp == MlpKind::SwiGlu) ? 3.0 : 2.0;
    double routed = double(cfg.topK);
    out.mlp = (B * s * b * h + 1.0 * s * b * h) * sp +
              routed * f_tensors * B * s * b * f / t;

    return out;
}

double
activationMemory(const TransformerConfig &cfg, const ActivationParams &p,
                 long long layers, Recompute strategy,
                 long long checkpoints)
{
    checkPositive(layers, "layers");
    ActivationBreakdown br = layerActivations(cfg, p);
    const double a_tot = br.total();
    const double a_inp = br.input;
    const double L = double(layers);

    switch (strategy) {
      case Recompute::None:
        return L * a_tot;
      case Recompute::Selective:
        // Eq. 2.
        return L * (a_tot - br.scores);
      case Recompute::Full: {
        // Eq. 1. Default: checkpoint every layer (Megatron's full
        // recomputation), i.e. N_ckp = L.
        long long n_ckp = checkpoints > 0 ? checkpoints : layers;
        checkConfig(n_ckp <= layers,
                    "checkpoints cannot exceed resident layers");
        return double(n_ckp) * a_inp +
               L / double(n_ckp) * (a_tot - a_inp);
      }
    }
    throw ModelError("unknown recompute strategy");
}

double
recomputeForwardFraction(const std::vector<Op> &fwd, Recompute strategy)
{
    switch (strategy) {
      case Recompute::None:
        return 0.0;
      case Recompute::Full:
        return 1.0;
      case Recompute::Selective: {
        // Recompute only the attention-score region: QK^T, softmax,
        // dropout, and the attention-over-V contraction.
        double total = 0.0;
        double region = 0.0;
        for (const Op &op : fwd) {
            double fl = opFlops(op);
            total += fl;
            if (op.name == "qk^T" || op.name == "attn-softmax" ||
                op.name == "attn-dropout" || op.name == "attn-v") {
                region += fl;
            }
        }
        checkConfig(total > 0.0, "layer has no forward work");
        return region / total;
      }
    }
    throw ModelError("unknown recompute strategy");
}

} // namespace optimus
