#include "ml/config.h"

#include <fstream>
#include <initializer_list>
#include <sstream>

#include "ml/avgpool_layer.h"
#include "ml/connected_layer.h"
#include "ml/dropout_layer.h"
#include "ml/conv_layer.h"
#include "ml/maxpool_layer.h"

namespace plinius::ml {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// The most elements any one buffer of a layer may hold: its parameters, one
// sample's column matrix or activations, or a batch's activations. 2^28
// floats is 1 GiB; the largest buffer of the paper's model is a batch of
// 128 x 8 x 14 x 14 activations, about 2e5. Every extent a config names is
// capped the same way, so a hostile one fails as MlError here, before the
// layer that would size a buffer from it is built, instead of as
// std::bad_alloc inside it.
constexpr std::size_t kMaxLayerElements = std::size_t{1} << 28;

// A size, stride, count or pad read from section `s`: rejects values below
// `min` (1 for every extent, 0 for a pad), so a hostile config fails here
// instead of dividing by zero or sizing a vector from a negative number, and
// values above kMaxLayerElements.
std::size_t get_dim(const ConfigSection& s, const std::string& key, long fallback,
                    long min = 1) {
  const long v = s.get_int(key, fallback);
  if (v < min) {
    throw MlError("config: [" + s.name + "] option '" + key + "' must be >= " +
                  std::to_string(min) + ", got " + std::to_string(v));
  }
  if (static_cast<unsigned long>(v) > kMaxLayerElements) {
    throw MlError("config: [" + s.name + "] option '" + key + "' must be <= " +
                  std::to_string(kMaxLayerElements) + ", got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

// Throws MlError when the product of `factors`, the element count of the
// buffer `what` of `section`, exceeds kMaxLayerElements (overflow included).
void check_elements(const std::string& section, const char* what,
                    std::initializer_list<std::size_t> factors) {
  std::size_t n = 1;
  bool over = false;
  for (const std::size_t f : factors) over = over || __builtin_mul_overflow(n, f, &n);
  if (over || n > kMaxLayerElements) {
    throw MlError("config: [" + section + "] " + what + " exceed the cap of " +
                  std::to_string(kMaxLayerElements) + " elements per layer buffer");
  }
}

// A layer's one-sample and whole-batch activations.
void check_activations(const std::string& section, Shape shape, std::size_t batch) {
  check_elements(section, "activations", {shape.c, shape.h, shape.w});
  check_elements(section, "batch activations", {batch, shape.c, shape.h, shape.w});
}
}  // namespace

bool ConfigSection::has(const std::string& key) const { return options.contains(key); }

std::string ConfigSection::get(const std::string& key, const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

long ConfigSection::get_int(const std::string& key, long fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::size_t end = 0;
  try {
    const long v = std::stol(it->second, &end);
    if (end == it->second.size()) return v;
  } catch (const std::exception&) {
  }
  throw MlError("config: option '" + key + "' is not an integer: " + it->second);
}

double ConfigSection::get_double(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::size_t end = 0;
  try {
    const double v = std::stod(it->second, &end);
    if (end == it->second.size()) return v;
  } catch (const std::exception&) {
  }
  throw MlError("config: option '" + key + "' is not a number: " + it->second);
}

ModelConfig ModelConfig::parse(const std::string& text) {
  ModelConfig config;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw MlError("config: unterminated section at line " + std::to_string(line_no));
      }
      config.sections.push_back({line.substr(1, line.size() - 2), {}});
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw MlError("config: expected key=value at line " + std::to_string(line_no));
    }
    if (config.sections.empty()) {
      throw MlError("config: option before any section at line " +
                    std::to_string(line_no));
    }
    config.sections.back().options[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  if (config.sections.empty() || config.sections.front().name != "net") {
    throw MlError("config: first section must be [net]");
  }
  return config;
}

ModelConfig ModelConfig::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw MlError("config: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

std::string ModelConfig::to_string() const {
  std::ostringstream out;
  for (const auto& section : sections) {
    out << '[' << section.name << "]\n";
    for (const auto& [k, v] : section.options) out << k << '=' << v << '\n';
    out << '\n';
  }
  return out.str();
}

const ConfigSection& ModelConfig::net() const {
  expects(!sections.empty() && sections.front().name == "net",
          "ModelConfig: missing [net] section");
  return sections.front();
}

std::size_t ModelConfig::batch() const { return get_dim(net(), "batch", 128); }

SgdParams ModelConfig::sgd_params() const {
  SgdParams p;
  p.learning_rate = static_cast<float>(net().get_double("learning_rate", 0.1));
  p.momentum = static_cast<float>(net().get_double("momentum", 0.9));
  p.decay = static_cast<float>(net().get_double("decay", 0.0005));
  return p;
}

namespace {
// Parses "100,200,300" into a vector; `conv(item, &end)` has stoull/stof
// semantics, and an item with trailing characters is rejected.
template <typename T, typename Conv>
std::vector<T> parse_list(const std::string& text, Conv conv) {
  std::vector<T> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t end = 0;
    try {
      out.push_back(conv(item, &end));
    } catch (const std::exception&) {
    }
    if (end != item.size() || item.empty()) {
      throw MlError("config: malformed list item: " + item);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}
}  // namespace

LrSchedule ModelConfig::lr_schedule() const {
  const auto& n = net();
  LrSchedule s;
  s.policy = LrSchedule::policy_from_name(n.get("policy", "constant"));
  s.base_lr = static_cast<float>(n.get_double("learning_rate", 0.1));
  if (n.has("steps")) {
    s.steps = parse_list<std::uint64_t>(
        n.get("steps", ""),
        [](const std::string& x, std::size_t* end) { return std::stoull(x, end); });
  }
  if (n.has("scales")) {
    s.scales = parse_list<float>(
        n.get("scales", ""),
        [](const std::string& x, std::size_t* end) { return std::stof(x, end); });
  }
  s.gamma = static_cast<float>(n.get_double("gamma", 0.99));
  s.power = static_cast<float>(n.get_double("power", 4.0));
  s.max_iterations = static_cast<std::uint64_t>(n.get_int("max_batches", 500));
  s.burn_in = static_cast<std::uint64_t>(n.get_int("burn_in", 0));
  return s;
}

Shape ModelConfig::input_shape() const {
  const auto& n = net();
  return Shape{get_dim(n, "channels", 1), get_dim(n, "height", 28),
               get_dim(n, "width", 28)};
}

// Every layer's buffers are checked against kMaxLayerElements before the
// layer is built: weights and column matrices before the constructors that
// allocate them, activations (allocated per batch, later) before the layer
// joins the network.
Network build_network(const ModelConfig& config, Rng& init_rng) {
  const std::size_t batch = config.batch();
  Network net(config.input_shape(), config.sgd_params());
  net.set_lr_schedule(config.lr_schedule());
  check_activations("net", net.input_shape(), batch);

  for (std::size_t i = 1; i < config.sections.size(); ++i) {
    const ConfigSection& s = config.sections[i];
    const Shape in = net.next_input_shape();
    if (s.name == "convolutional") {
      ConvConfig c;
      c.filters = get_dim(s, "filters", 16);
      c.ksize = get_dim(s, "size", 3);
      c.stride = get_dim(s, "stride", 1);
      c.pad = get_dim(s, "pad", 1, 0);
      c.batch_normalize = s.get_int("batch_normalize", 1) != 0;
      c.activation = activation_from_name(s.get("activation", "leaky"));
      check_elements(s.name, "weights", {c.filters, in.c, c.ksize, c.ksize});
      // A kernel wider than the padded input is the plan's to reject.
      if (in.h + 2 * c.pad >= c.ksize && in.w + 2 * c.pad >= c.ksize) {
        const std::size_t out_h = conv_out_dim(in.h, c.ksize, c.stride, c.pad);
        const std::size_t out_w = conv_out_dim(in.w, c.ksize, c.stride, c.pad);
        check_elements(s.name, "column matrix", {in.c, c.ksize, c.ksize, out_h, out_w});
        check_activations(s.name, Shape{c.filters, out_h, out_w}, batch);
      }
      net.add(std::make_unique<ConvLayer>(in, c, init_rng));
    } else if (s.name == "maxpool") {
      MaxPoolConfig c;
      c.size = get_dim(s, "size", 2);
      c.stride = get_dim(s, "stride", 2);
      net.add(std::make_unique<MaxPoolLayer>(in, c));
    } else if (s.name == "avgpool") {
      AvgPoolConfig c;
      // size=0 is global pooling, which has no stride.
      c.size = get_dim(s, "size", 0, 0);
      c.stride = get_dim(s, "stride", static_cast<long>(c.size), c.size > 0 ? 1 : 0);
      net.add(std::make_unique<AvgPoolLayer>(in, c));
    } else if (s.name == "dropout") {
      const float p = static_cast<float>(s.get_double("probability", 0.5));
      net.add(std::make_unique<DropoutLayer>(in, p, init_rng.next()));
    } else if (s.name == "connected") {
      ConnectedConfig c;
      c.outputs = get_dim(s, "output", 10);
      c.activation = activation_from_name(s.get("activation", "linear"));
      check_elements(s.name, "weights", {c.outputs, in.c, in.h, in.w});
      check_activations(s.name, Shape{c.outputs, 1, 1}, batch);
      net.add(std::make_unique<ConnectedLayer>(in, c, init_rng));
    } else if (s.name == "softmax") {
      net.add(std::make_unique<SoftmaxLayer>(in));
    } else {
      throw MlError("config: unknown layer type [" + s.name + "]");
    }
    // The pooling, dropout and softmax layers allocate nothing until the
    // first batch; their output shape is known once built.
    check_activations(s.name, net.next_input_shape(), batch);
  }
  expects(net.num_layers() > 0, "build_network: config has no layers");
  return net;
}

ModelConfig make_cnn_config(std::size_t conv_layers, std::size_t base_filters,
                            std::size_t batch) {
  expects(conv_layers >= 1, "make_cnn_config: need at least one conv layer");
  std::ostringstream cfg;
  cfg << "[net]\nbatch=" << batch
      << "\nlearning_rate=0.1\nmomentum=0.9\ndecay=0.0005\n"
         "height=28\nwidth=28\nchannels=1\n\n";

  // Downsample with stride-2 convolutions at layers 1, 2 and 4 (28->14->7->4)
  // and grow the filter count, mirroring the compact CNNs of the paper's
  // evaluation; remaining layers are stride-1 LReLU convolutions.
  std::size_t filters = base_filters;
  for (std::size_t i = 0; i < conv_layers; ++i) {
    const bool downsample = i == 0 || i == 1 || i == 3;
    if (downsample && i > 0) filters *= 2;
    cfg << "[convolutional]\nbatch_normalize=1\nfilters=" << filters
        << "\nsize=3\nstride=" << (downsample ? 2 : 1)
        << "\npad=1\nactivation=leaky\n\n";
  }
  cfg << "[connected]\noutput=10\nactivation=linear\n\n[softmax]\n";
  return ModelConfig::parse(cfg.str());
}

}  // namespace plinius::ml
